package core

import (
	"math/rand"
	"testing"

	"pipelayer/internal/energy"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/reram"
	"pipelayer/internal/tensor"
)

// The capstone fidelity check: a whole (tiny) network inferred through the
// true spike-by-spike crossbar simulation — weighted spike trains driven
// into ResolutionArrays, Integration-and-Fire counting, shift-add of the
// four 4-bit groups, D_P − D_N subtraction, the rectifier LUT — must match
// a replica of the accelerator bit for bit at every layer, end to end.
func TestSpikeExactEndToEndInference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const bits = 8

	// A 2-layer MLP small enough for the O(rows·cols·bits·8) spike path.
	in, hid, out := 16, 6, 4
	spec := networks.Spec{
		Name: "tiny", InC: 1, InH: 4, InW: 4, Classes: out,
		Layers: []mapping.Layer{
			mapping.FC("fc1", in, hid),
			mapping.FC("fc2", hid, out),
		},
	}
	net := networks.BuildTrainable(spec, rng)
	model := energy.DefaultModel()
	model.SpikeBits = bits
	a, err := NewFromSnapshot(model, spec, 1, net)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := a.NewReplica()
	if err != nil {
		t.Fatal(err)
	}

	// Spike-exact path: one ResolutionArray per dense layer.
	dense1 := net.Layers[0].(*nn.Dense)
	dense2 := net.Layers[2].(*nn.Dense)
	ra1 := reram.NewResolutionArray(tensor.Transpose(dense1.Weights().Value), in, hid)
	ra2 := reram.NewResolutionArray(tensor.Transpose(dense2.Weights().Value), hid, out)
	relu := reram.ReLULUT()

	spikeForward := func(x *tensor.Tensor) *tensor.Tensor {
		h := ra1.MatVecFloat(x, bits)
		h.AddInPlace(dense1.Bias().Value)
		for i, v := range h.Data() {
			h.Data()[i] = relu.Lookup(v)
		}
		y := ra2.MatVecFloat(h, bits)
		y.AddInPlace(dense2.Bias().Value)
		return y
	}

	for trial := 0; trial < 5; trial++ {
		x := tensor.New(in).RandUniform(rng, 0, 1)
		spikeY := spikeForward(x)
		fastY := fast.Infer(x)
		if !tensor.Identical(spikeY, fastY) {
			t.Fatalf("trial %d: spike-exact %v vs replica %v", trial, spikeY.Data(), fastY.Data())
		}
	}

	// The spike path actually fired: energy-relevant event counts are live.
	s := ra1.Stats()
	if s.InputSpikes == 0 || s.OutputSpikes == 0 || s.CellWrites == 0 {
		t.Fatalf("spike statistics empty: %+v", s)
	}
}
