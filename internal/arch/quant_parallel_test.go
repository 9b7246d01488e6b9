package arch

import (
	"math/rand"
	"runtime"
	"testing"

	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
)

func withWorkersArch(t *testing.T, n int, f func()) {
	t.Helper()
	old := parallel.Workers()
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(old)
	f()
}

// TestParallelDeterminismQuantized asserts the column-parallel quantized
// readout is bit-identical to serial across worker counts and an odd shape.
func TestParallelDeterminismQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const rows, cols = 131, 77
	w := tensor.New(rows, cols).RandNormal(rng, 0, 1)
	x := tensor.New(rows).RandNormal(rng, 0, 1)
	// Exact zeros exercise the sparse input-code skip.
	x.Data()[3] = 0

	q := NewQuantized(w, rows, cols, 8)

	var refQ *tensor.Tensor
	withWorkersArch(t, 1, func() {
		refQ = q.MatVec(x)
	})
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		withWorkersArch(t, workers, func() {
			got := q.MatVec(x)
			for j, v := range got.Data() {
				if v != refQ.Data()[j] {
					t.Errorf("Quantized.MatVec col %d differs at %d workers: %g vs %g", j, workers, v, refQ.Data()[j])
				}
			}
		})
	}
}

// TestParallelDeterminismBackward asserts the backward datapaths are
// bit-identical to serial across worker counts.
func TestParallelDeterminismBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	delta := tensor.New(5, 9, 9).RandNormal(rng, 0, 1)
	d := tensor.New(5, 9, 9).RandNormal(rng, 0, 1)
	poolDelta := tensor.New(3, 5, 5).RandNormal(rng, 0, 1)
	poolPrev := tensor.New(3, 10, 10).RandNormal(rng, 0, 1)
	dPrev := tensor.New(4, 11, 11).RandNormal(rng, 0, 1)
	convDelta := tensor.New(6, 11, 11).RandNormal(rng, 0, 1)

	var refRelu, refPool, refDW *tensor.Tensor
	withWorkersArch(t, 1, func() {
		refRelu = ReluBackward(delta, d)
		refPool = MaxPoolBackward(poolDelta, poolPrev, 2)
		refDW = ConvDerivative(dPrev, convDelta, 3, 1)
	})
	same := func(a, b *tensor.Tensor) bool {
		for i, v := range a.Data() {
			if v != b.Data()[i] {
				return false
			}
		}
		return true
	}
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		withWorkersArch(t, workers, func() {
			if !same(ReluBackward(delta, d), refRelu) {
				t.Errorf("ReluBackward differs at %d workers", workers)
			}
			if !same(MaxPoolBackward(poolDelta, poolPrev, 2), refPool) {
				t.Errorf("MaxPoolBackward differs at %d workers", workers)
			}
			if !same(ConvDerivative(dPrev, convDelta, 3, 1), refDW) {
				t.Errorf("ConvDerivative differs at %d workers", workers)
			}
		})
	}
}
