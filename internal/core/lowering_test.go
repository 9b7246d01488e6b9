package core

import (
	"math/rand"
	"testing"

	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// strideSpec has a stride-2 conv: inference serves it, training refuses it.
func strideSpec() networks.Spec {
	return networks.Spec{
		Name: "stride-cnn", InC: 1, InH: 28, InW: 28, Classes: 10,
		Layers: []mapping.Layer{
			mapping.Conv("conv1", 1, 28, 28, 6, 5, 2, 2), // -> 6×14×14
			mapping.Pool("pool1", 6, 14, 14, 2),          // -> 6×7×7
			mapping.FC("fc", 6*7*7, 10),
		},
	}
}

// TestSigmoidAndAvgPoolBackwardMatchFramework: the two weight-free stages
// core lowers beside max pooling back-propagate exactly as the framework's
// layers do. The sigmoid stage masks the error with y(1−y) of the output it
// is handed; average pooling computes Equation 2 forward and spreads δ·1/K²
// over each window backward.
func TestSigmoidAndAvgPoolBackwardMatchFramework(t *testing.T) {
	rng := rand.New(rand.NewSource(5))

	s := nn.NewSigmoid("s")
	y := s.Forward(tensor.New(32).RandNormal(rng, 0, 2))
	g := tensor.New(32).RandNormal(rng, 0, 1)
	lut := &lutEngine{n: 32}
	if err := sameBits(lut.maskError(g, y), s.Backward(g)); err != nil {
		t.Fatalf("sigmoid mask: %v", err)
	}

	p := nn.NewAvgPool("p", 3, 8, 8, 2)
	pool := &poolEngine{inC: 3, inH: 8, inW: 8, k: 2, avg: true}
	x := tensor.New(3, 8, 8).RandNormal(rng, 0, 1)
	if err := sameBits(pool.forward([]*tensor.Tensor{x})[0], p.Forward(x)); err != nil {
		t.Fatalf("avg pool forward: %v", err)
	}
	d := tensor.New(3, 4, 4).RandNormal(rng, 0, 1)
	if err := sameBits(pool.propagate(d, x), p.Backward(d)); err != nil {
		t.Fatalf("avg pool backward: %v", err)
	}
}

func TestSigmoidNetworkTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("training skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(23))
	net := networks.BuildTrainable(testutil.SigmoidMLP("sig-mlp"), rng)
	// XOR-style sanity: the sigmoid MLP must learn the synthetic digits at
	// least moderately.
	first := 0.0
	var last float64
	for e := 0; e < 6; e++ {
		loss := net.TrainEpoch(testutil.FlatSamples(300, 44), 10, 0.3)
		if e == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("sigmoid net loss did not decrease: %g -> %g", first, last)
	}
}
