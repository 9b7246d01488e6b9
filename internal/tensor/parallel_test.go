package tensor

import (
	"math/rand"
	"runtime"
	"testing"

	"pipelayer/internal/parallel"
)

// withWorkers runs f with the process-wide pool set to n workers, restoring
// the previous size afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	old := parallel.Workers()
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(old)
	f()
}

// workerSweep is the property-test sweep of the issue: serial, two, an odd
// count that never divides the shapes evenly, and the machine's own width.
func workerSweep() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// TestParallelDeterminismMatMulFamily asserts that every matmul-family
// primitive is bit-identical to its serial result across worker counts and
// odd (non-chunk-aligned) shapes.
func TestParallelDeterminismMatMulFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 31, 13}, {64, 64, 64}, {129, 67, 251}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := New(m, k).RandNormal(rng, 0, 1)
		b := New(k, n).RandNormal(rng, 0, 1)
		at := New(k, m).RandNormal(rng, 0, 1)
		bt := New(n, k).RandNormal(rng, 0, 1)
		x := New(k).RandNormal(rng, 0, 1)
		// Inject exact zeros so the sparse skip paths are exercised.
		a.Data()[0], b.Data()[len(b.Data())-1] = 0, 0

		var refMM, refTA, refTB, refMV, refOut, refTr *Tensor
		withWorkers(t, 1, func() {
			refMM = MatMul(a, b)
			refTA = MatMulTransA(at, b)
			refTB = MatMulTransB(a, bt)
			refMV = MatVec(a, x)
			refOut = Outer(x, New(n).RandNormal(rand.New(rand.NewSource(7)), 0, 1))
			refTr = Transpose(a)
		})
		for _, w := range workerSweep() {
			withWorkers(t, w, func() {
				if got := MatMul(a, b); !Identical(got, refMM) {
					t.Errorf("MatMul (%d×%d)·(%d×%d) differs at %d workers", m, k, k, n, w)
				}
				if got := MatMulTransA(at, b); !Identical(got, refTA) {
					t.Errorf("MatMulTransA differs at %d workers (shape %v)", w, s)
				}
				if got := MatMulTransB(a, bt); !Identical(got, refTB) {
					t.Errorf("MatMulTransB differs at %d workers (shape %v)", w, s)
				}
				if got := MatVec(a, x); !Identical(got, refMV) {
					t.Errorf("MatVec differs at %d workers (shape %v)", w, s)
				}
				if got := Outer(x, New(n).RandNormal(rand.New(rand.NewSource(7)), 0, 1)); !Identical(got, refOut) {
					t.Errorf("Outer differs at %d workers (shape %v)", w, s)
				}
				if got := Transpose(a); !Identical(got, refTr) {
					t.Errorf("Transpose differs at %d workers (shape %v)", w, s)
				}
			})
		}
	}
}

// TestParallelDeterminismConv asserts Conv2D, Im2Col and Col2Im are
// bit-identical to serial across worker counts on odd geometries.
func TestParallelDeterminismConv(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []struct{ c, h, w, oc, k, stride, pad int }{
		{1, 5, 5, 1, 3, 1, 0},
		{3, 13, 11, 5, 3, 1, 1},
		{7, 17, 17, 3, 5, 2, 2},
		{16, 28, 28, 32, 3, 1, 1},
	}
	for _, cs := range cases {
		x := New(cs.c, cs.h, cs.w).RandNormal(rng, 0, 1)
		kern := New(cs.oc, cs.c, cs.k, cs.k).RandNormal(rng, 0, 1)
		bias := New(cs.oc).RandNormal(rng, 0, 1)
		oh := ConvOutDim(cs.h, cs.k, cs.stride, cs.pad)
		ow := ConvOutDim(cs.w, cs.k, cs.stride, cs.pad)
		cols := New(cs.c*cs.k*cs.k, oh*ow).RandNormal(rng, 0, 1)

		var refConv, refIm, refCol *Tensor
		withWorkers(t, 1, func() {
			refConv = Conv2D(x, kern, bias, cs.stride, cs.pad)
			refIm = Im2Col(x, cs.k, cs.k, cs.stride, cs.pad)
			refCol = Col2Im(cols, cs.c, cs.h, cs.w, cs.k, cs.k, cs.stride, cs.pad)
		})
		for _, w := range workerSweep() {
			withWorkers(t, w, func() {
				if got := Conv2D(x, kern, bias, cs.stride, cs.pad); !Identical(got, refConv) {
					t.Errorf("Conv2D differs at %d workers (case %+v)", w, cs)
				}
				if got := Im2Col(x, cs.k, cs.k, cs.stride, cs.pad); !Identical(got, refIm) {
					t.Errorf("Im2Col differs at %d workers (case %+v)", w, cs)
				}
				if got := Col2Im(cols, cs.c, cs.h, cs.w, cs.k, cs.k, cs.stride, cs.pad); !Identical(got, refCol) {
					t.Errorf("Col2Im differs at %d workers (case %+v)", w, cs)
				}
			})
		}
	}
}

// TestMatMulShapePanics asserts that the matmul family rejects mismatched
// shapes with messages that name the offending dims, rather than letting an
// index-out-of-range escape from the inner loops.
func TestMatMulShapePanics(t *testing.T) {
	mustPanic := func(name, wantSub string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic", name)
				return
			}
			msg, ok := r.(string)
			if !ok {
				t.Errorf("%s: panic value %v (%T) is not a descriptive message", name, r, r)
				return
			}
			if !containsAll(msg, "tensor:", wantSub) {
				t.Errorf("%s: panic %q does not name the offending dims (want substring %q)", name, msg, wantSub)
			}
		}()
		f()
	}
	a23 := New(2, 3)
	b45 := New(4, 5)
	v4 := New(4)
	r3 := New(3)
	mustPanic("MatMul inner dims", "3 == 4", func() { MatMul(a23, b45) })
	mustPanic("MatMul rank", "[4]", func() { MatMul(a23, v4) })
	mustPanic("MatMulTransA rank", "[4]", func() { MatMulTransA(v4, b45) })
	mustPanic("MatMulTransA inner dims", "2 == 4", func() { MatMulTransA(a23, b45) })
	mustPanic("MatMulTransB rank", "[4]", func() { MatMulTransB(a23, v4) })
	mustPanic("MatMulTransB inner dims", "3 == 5", func() { MatMulTransB(a23, b45) })
	mustPanic("MatVec dims", "3 cols, vector 4", func() { MatVec(a23, v4) })
	mustPanic("Outer rank", "[2 3]", func() { Outer(a23, v4) })
	mustPanic("Transpose rank", "[4]", func() { Transpose(v4) })
	mustPanic("Conv2DDirect rank", "[2 3]", func() { Conv2DDirect(a23, New(1, 1, 2, 2), nil, 1, 0) })
	mustPanic("Conv2DDirect channels", "2 channels", func() {
		Conv2DDirect(New(2, 5, 5), New(1, 3, 2, 2), nil, 1, 0)
	})
	mustPanic("Conv2DDirect bias", "bias size 2", func() {
		Conv2DDirect(New(1, 5, 5), New(3, 1, 2, 2), New(2), 1, 0)
	})
	_ = r3
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
