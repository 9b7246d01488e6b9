package arch

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pipelayer/internal/fault"
	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
)

// TestMatVecColsBitIdentical: every column of the batched readout must match
// MatVec on that column alone, bit for bit (math.Float64bits, so −0 ≠ +0) —
// this is the contract the serving layer's "batched == serial" guarantee and
// every engine's one-column readout rest on. Covers zero columns (the serial
// path short-circuits them) and ragged shapes.
func TestMatVecColsBitIdentical(t *testing.T) {
	cases := []struct{ rows, cols, n int }{
		{1, 1, 1},
		{23, 11, 1},
		{23, 11, 5},
		{64, 17, 16},
		{7, 31, 3},
	}
	for _, tc := range cases {
		w := randTensor(tc.rows*tc.cols, int64(tc.rows*1000+tc.n))
		q := NewQuantized(w, tc.rows, tc.cols, 16)

		vecs := make([]*tensor.Tensor, tc.n)
		rng := rand.New(rand.NewSource(int64(tc.cols)))
		for c := range vecs {
			if c == 1 {
				vecs[c] = tensor.New(tc.rows) // all-zero input column
				continue
			}
			v := tensor.New(tc.rows)
			for i := range v.Data() {
				x := rng.NormFloat64()
				if rng.Intn(3) == 0 {
					x = 0 // exercise the zero-skip terms too
				}
				v.Data()[i] = x
			}
			vecs[c] = v
		}

		got := q.MatVecCols(PackCols(vecs))
		if got.Dim(0) != tc.cols || got.Dim(1) != tc.n {
			t.Fatalf("%dx%d n=%d: batched shape %v", tc.rows, tc.cols, tc.n, got.Shape())
		}
		for c, v := range vecs {
			want := q.MatVec(v)
			for j := 0; j < tc.cols; j++ {
				if math.Float64bits(got.At(j, c)) != math.Float64bits(want.At(j)) {
					t.Fatalf("%dx%d n=%d: out[%d] of column %d = %v, serial %v",
						tc.rows, tc.cols, tc.n, j, c, got.At(j, c), want.At(j))
				}
			}
		}
	}
}

// TestMatVecColsFaultyBitIdentical: the batched readout must consume the same
// effective conductances, drift factor and column states as the serial path,
// so batching composes with fault injection without changing a single bit.
// Batches of 1 and 6 run only the fault path's per-column tail, and 9 runs
// one 8-column block and a tail; the inputs hold zeros, and column 1 of a
// wider batch is all zero.
func TestMatVecColsFaultyBitIdentical(t *testing.T) {
	const rows, cols, bits = 24, 13, 16
	inj := fault.MustNew(fault.Config{
		Seed: 17, StuckOff: 0.002, StuckOn: 0.001,
		Drift: 0.05, Spares: 2, Degrade: true,
	})
	q := NewQuantized(randTensor(rows*cols, 21), rows, cols, bits)
	q.AttachFaults(inj, 1)
	q.Tick(1000) // age the array so drift != 1

	for _, n := range []int{1, 6, 9} {
		vecs := make([]*tensor.Tensor, n)
		rng := rand.New(rand.NewSource(int64(100 + n)))
		for c := range vecs {
			v := tensor.New(rows)
			if c != 1 { // column 1 stays all zero
				for i := range v.Data() {
					if rng.Intn(3) != 0 {
						v.Data()[i] = rng.NormFloat64()
					}
				}
			}
			vecs[c] = v
		}
		got := q.MatVecCols(PackCols(vecs))
		for c, v := range vecs {
			want := q.MatVec(v)
			for j := 0; j < cols; j++ {
				if math.Float64bits(got.At(j, c)) != math.Float64bits(want.At(j)) {
					t.Fatalf("n=%d: faulty column %d out[%d] = %v, serial %v", n, c, j, got.At(j, c), want.At(j))
				}
			}
		}
	}
}

// TestMatVecColsConsumeBitIdentical: quantizing the input in place must give
// MatVecCols' result bit for bit, on ideal and faulty arrays, including the
// inputs whose codes the readout never computes: ±0 elements and a column
// whose scale is zero despite a NaN in it. MatVecCols must leave its input
// untouched.
func TestMatVecColsConsumeBitIdentical(t *testing.T) {
	const rows, cols, n = 24, 13, 9
	x := tensor.New(rows, n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < rows; i++ {
		for c := 0; c < n; c++ {
			var v float64
			switch {
			case c == 1: // all-zero column, signed zeros included
				v = math.Copysign(0, float64(i%2)-0.5)
			case c == 2 && i == 5: // zero scale: NaN never raises it
				v = math.NaN()
			case c == 2:
				v = 0
			case rng.Intn(4) == 0:
				v = math.Copysign(0, rng.NormFloat64())
			default:
				v = rng.NormFloat64()
			}
			x.Set(v, i, c)
		}
	}
	inj := fault.MustNew(fault.Config{Seed: 17, StuckOff: 0.002, StuckOn: 0.001, Drift: 0.05, Spares: 2, Degrade: true})
	faulty := NewQuantized(randTensor(rows*cols, 21), rows, cols, 16)
	faulty.AttachFaults(inj, 1)
	faulty.Tick(1000)
	for name, q := range map[string]*Quantized{
		"ideal":  NewQuantized(randTensor(rows*cols, 11), rows, cols, 16),
		"faulty": faulty,
	} {
		in := x.Clone()
		want := q.MatVecCols(in)
		if !sameBits(in.Data(), x.Data()) {
			t.Fatalf("%s: MatVecCols modified its input", name)
		}
		if got := q.MatVecColsConsume(in); !sameBits(got.Data(), want.Data()) {
			t.Fatalf("%s: MatVecColsConsume differs from MatVecCols", name)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMatVecColsWorkersDeterministic: the batched readout is bit-identical
// across worker counts, like every other hot path in the repo.
func TestMatVecColsWorkersDeterministic(t *testing.T) {
	const rows, cols, n = 48, 29, 8
	q := NewQuantized(randTensor(rows*cols, 5), rows, cols, 16)
	x := PackCols(func() []*tensor.Tensor {
		vs := make([]*tensor.Tensor, n)
		for c := range vs {
			vs[c] = randTensor(rows, int64(c+1))
		}
		return vs
	}())

	saved := parallel.Workers()
	defer parallel.SetWorkers(saved)

	parallel.SetWorkers(1)
	want := q.MatVecCols(x)
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		parallel.SetWorkers(workers)
		if got := q.MatVecCols(x); !tensor.Equal(got, want, 0) {
			t.Fatalf("workers=%d: batched readout diverged from workers=1", workers)
		}
	}
}

// TestMatVecColsShapePanic: a row-count mismatch must fail loudly with the
// array geometry in the message, matching MatVec's contract.
func TestMatVecColsShapePanic(t *testing.T) {
	q := NewQuantized(randTensor(6, 1), 3, 2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("MatVecCols accepted a mismatched input")
		}
	}()
	q.MatVecCols(tensor.New(4, 2))
}
