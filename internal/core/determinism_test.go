package core

import (
	"math/rand"
	"runtime"
	"testing"

	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// TestExecutorParallelDeterminism is the end-to-end half of the determinism
// property: full sequential training, pipelined training, and Test produce
// bit-identical weights, losses, and accuracy across worker counts
// {1, 2, 7, GOMAXPROCS}.
func TestExecutorParallelDeterminism(t *testing.T) {
	spec := testutil.TinyMLP("det-mlp")
	train := testutil.FlatSamples(16, 8)
	test := testutil.FlatSamples(24, 9)

	type result struct {
		loss, acc float64
		weights   []*tensor.Tensor
	}
	run := func(workers int) result {
		old := parallel.Workers()
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(old)
		a := newAccel()
		if err := a.TopologySet(spec, 1); err != nil {
			t.Fatal(err)
		}
		if err := a.WeightLoad(nil, rand.New(rand.NewSource(77))); err != nil {
			t.Fatal(err)
		}
		seqRep, err := a.Train(train, 8, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		pipeRep, err := a.TrainPipelined(train, 8, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		testRep, err := a.Test(test)
		if err != nil {
			t.Fatal(err)
		}
		return result{loss: seqRep.MeanLoss + pipeRep.MeanLoss, acc: testRep.Accuracy, weights: a.WeightsSnapshot()}
	}

	ref := run(1)
	for _, w := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		got := run(w)
		if got.loss != ref.loss {
			t.Errorf("%d workers: training loss %.17g differs from serial %.17g", w, got.loss, ref.loss)
		}
		if got.acc != ref.acc {
			t.Errorf("%d workers: test accuracy %g differs from serial %g", w, got.acc, ref.acc)
		}
		if len(got.weights) != len(ref.weights) {
			t.Fatalf("%d workers: %d weight tensors, want %d", w, len(got.weights), len(ref.weights))
		}
		for i := range ref.weights {
			if !tensor.Identical(got.weights[i], ref.weights[i]) {
				t.Errorf("%d workers: weight tensor %d differs from serial", w, i)
			}
		}
	}
}
