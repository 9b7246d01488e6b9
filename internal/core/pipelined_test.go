package core

import (
	"math/rand"
	"testing"

	"pipelayer/internal/networks"
	"pipelayer/internal/pipeline"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// buildPair creates two identically initialized accelerators.
func buildPair(t *testing.T, spec networks.Spec, seed int64) (*Accelerator, *Accelerator) {
	t.Helper()
	mk := func() *Accelerator {
		a := newAccel()
		if err := a.TopologySet(spec, 1); err != nil {
			t.Fatal(err)
		}
		if err := a.WeightLoad(nil, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		return a
	}
	return mk(), mk()
}

// The central architectural claim, functionally verified: processing B
// images through the Figure 6 pipeline — with d values held in
// 2(L−l)+1-deep circular rings and every unit used once per cycle —
// computes exactly the same weights as processing them sequentially.
func TestPipelinedTrainMatchesSequential(t *testing.T) {
	for _, spec := range []networks.Spec{testutil.TinyDeepMLP("pipe-mlp"), testutil.SigmoidMLP("sig-mlp")} {
		t.Run(spec.Name, func(t *testing.T) {
			seq, pipe := buildPair(t, spec, 31)
			samples := testutil.FlatSamples(40, 8)

			repSeq, err := seq.Train(samples, 8, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			repPipe, err := pipe.TrainPipelined(samples, 8, 0.1)
			if err != nil {
				t.Fatal(err)
			}

			if repSeq.MeanLoss != repPipe.MeanLoss {
				t.Fatalf("losses differ: sequential %.12f vs pipelined %.12f", repSeq.MeanLoss, repPipe.MeanLoss)
			}
			ws, wp := seq.WeightsSnapshot(), pipe.WeightsSnapshot()
			if len(ws) != len(wp) {
				t.Fatalf("snapshot lengths differ: %d vs %d", len(ws), len(wp))
			}
			for i := range ws {
				if !tensor.Identical(ws[i], wp[i]) {
					t.Fatalf("weight tensor %d differs between sequential and pipelined training", i)
				}
			}
		})
	}
}

func TestPipelinedTrainMatchesSequentialCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	for _, spec := range []networks.Spec{testutil.TinyDeepCNN("pipe-cnn"), testutil.AvgPoolCNN("avg-cnn")} {
		t.Run(spec.Name, func(t *testing.T) {
			seq, pipe := buildPair(t, spec, 5)
			samples := testutil.ImageSamples(12, 9)
			if _, err := seq.Train(samples, 4, 0.05); err != nil {
				t.Fatal(err)
			}
			if _, err := pipe.TrainPipelined(samples, 4, 0.05); err != nil {
				t.Fatal(err)
			}
			ws, wp := seq.WeightsSnapshot(), pipe.WeightsSnapshot()
			for i := range ws {
				if !tensor.Identical(ws[i], wp[i]) {
					t.Fatalf("CNN weight tensor %d differs", i)
				}
			}
		})
	}
}

func TestPipelinedCycleCountMatchesStageFormula(t *testing.T) {
	// The pipelined executor's schedule spans (N/B)(2S+B+1) cycles where S
	// counts *all* stages (pooling included).
	spec := networks.Mnist0()
	a := newAccel()
	if err := a.TopologySet(spec, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	samples := testutil.ImageSamples(16, 3)
	rep, err := a.TrainPipelined(samples, 8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	stages := 6 // conv, pool, conv, pool, fc, fc
	want := (16 / 8) * (2*stages + 8 + 1)
	if rep.Cycles != want {
		t.Fatalf("pipelined executor cycles = %d, want %d", rep.Cycles, want)
	}
}

func TestPipelinedTrainValidation(t *testing.T) {
	a := newAccel()
	if _, err := a.TrainPipelined(nil, 4, 0.1); err == nil {
		t.Fatal("unloaded accelerator must fail")
	}
	if err := a.TopologySet(networks.MnistA(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	samples := testutil.FlatSamples(10, 1)
	if _, err := a.TrainPipelined(samples, 3, 0.1); err == nil {
		t.Fatal("non-multiple sample count must fail")
	}
}

func TestRingLivenessAndDepth(t *testing.T) {
	r := pipeline.NewCircularBuffer[*tensor.Tensor]("x", 2)
	a := tensor.FromSlice([]float64{1}, 1)
	b := tensor.FromSlice([]float64{2}, 1)
	r.Write(0, a)
	r.Write(1, b)
	if got := r.Peek(0); got.At(0) != 1 {
		t.Fatal("peek broken")
	}
	if got := r.Consume(0); got.At(0) != 1 {
		t.Fatal("consume broken")
	}
	// Slot 0 drained: the third write must succeed.
	r.Write(2, a)
	// Now both slots live: a fourth write must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("expected overwrite panic")
		}
	}()
	r.Write(3, b)
}

func TestRingConsumeMissingPanics(t *testing.T) {
	r := pipeline.NewCircularBuffer[*tensor.Tensor]("x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Consume(7)
}
