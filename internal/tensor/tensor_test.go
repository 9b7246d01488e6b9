package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if got := x.Size(); got != 24 {
		t.Fatalf("Size = %d, want 24", got)
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", x.Rank())
	}
	sh := x.Shape()
	sh[0] = 99 // must not alias internal state
	if x.Dim(0) != 2 {
		t.Fatal("Shape() leaked internal slice")
	}
}

func TestScalarTensor(t *testing.T) {
	s := New()
	if s.Size() != 1 || s.Rank() != 0 {
		t.Fatalf("scalar tensor: size=%d rank=%d", s.Size(), s.Rank())
	}
	s.Set(3.5)
	if s.At() != 3.5 {
		t.Fatalf("scalar At = %g", s.At())
	}
}

func TestAtSetRowMajor(t *testing.T) {
	x := New(2, 3)
	x.Set(1, 0, 0)
	x.Set(2, 0, 2)
	x.Set(3, 1, 1)
	want := []float64{1, 0, 2, 0, 3, 0}
	for i, v := range want {
		if x.Data()[i] != v {
			t.Fatalf("data[%d] = %g, want %g", i, x.Data()[i], v)
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must share backing data")
	}
	if y.At(2, 1) != 6 {
		t.Fatalf("reshaped layout wrong: %g", y.At(2, 1))
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Set(9, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data(); got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Hadamard(a, b).Data(); got[1] != 10 {
		t.Fatalf("Hadamard = %v", got)
	}
	c := a.Clone().ScaleInPlace(2)
	if c.At(2) != 6 {
		t.Fatalf("Scale = %v", c.Data())
	}
	d := a.Clone().AxpyInPlace(10, b)
	if d.At(0) != 41 {
		t.Fatalf("Axpy = %v", d.Data())
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -7, 5, 1}, 4)
	if x.Sum() != 2 {
		t.Fatalf("Sum = %g", x.Sum())
	}
	if x.Mean() != 0.5 {
		t.Fatalf("Mean = %g", x.Mean())
	}
	if v, i := x.Max(); v != 5 || i != 2 {
		t.Fatalf("Max = %g@%d", v, i)
	}
	if v, i := x.Min(); v != -7 || i != 1 {
		t.Fatalf("Min = %g@%d", v, i)
	}
	if x.AbsMax() != 7 {
		t.Fatalf("AbsMax = %g", x.AbsMax())
	}
	want := math.Sqrt(9 + 49 + 25 + 1)
	if math.Abs(x.Norm2()-want) > 1e-12 {
		t.Fatalf("Norm2 = %g, want %g", x.Norm2(), want)
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %g", got)
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0000001}, 2)
	if !Equal(a, b, 1e-3) {
		t.Fatal("Equal with tolerance should hold")
	}
	if Equal(a, b, 1e-9) {
		t.Fatal("Equal with tight tolerance should fail")
	}
	c := FromSlice([]float64{1, 2}, 1, 2)
	if Equal(a, c, 1) {
		t.Fatal("Equal must compare shapes")
	}
}

// TestIdentical: bit identity compares shapes and IEEE-754 bits, so −0 and
// +0 differ, and a NaN element matches nothing, not even the same NaN.
func TestIdentical(t *testing.T) {
	a := FromSlice([]float64{1, 0, math.Inf(-1)}, 3)
	if !Identical(a, a.Clone()) {
		t.Fatal("a tensor must be identical to its clone")
	}
	if Identical(a, a.Reshape(1, 3)) {
		t.Fatal("Identical must compare shapes")
	}
	if Identical(a, FromSlice([]float64{1, math.Copysign(0, -1), math.Inf(-1)}, 3)) {
		t.Fatal("-0 and +0 must differ")
	}
	nan := FromSlice([]float64{1, math.NaN()}, 2)
	if Identical(nan, nan.Clone()) {
		t.Fatal("a NaN must not match even a NaN of the same bits")
	}
	if Identical(nan, FromSlice([]float64{1, 0}, 2)) || Identical(FromSlice([]float64{1, 0}, 2), nan) {
		t.Fatal("a NaN must not match a number")
	}
}

// TestEqualRejectsNaN: a NaN element must fail the comparison at any
// tolerance, against a number and against another NaN, or the bit-identity
// oracles built on Equal would pass a NaN score.
func TestEqualRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, eps := range []float64{0, 1e-9} {
		for _, pair := range [][2]float64{{nan, 0}, {0, nan}, {nan, nan}} {
			a, b := FromSlice([]float64{1, pair[0]}, 2), FromSlice([]float64{1, pair[1]}, 2)
			if Equal(a, b, eps) {
				t.Errorf("Equal(%v, %v, %g) = true, want false", a.Data(), b.Data(), eps)
			}
		}
	}
	inf := FromSlice([]float64{math.Inf(1), math.Inf(-1)}, 2)
	if !Equal(inf, inf.Clone(), 0) {
		t.Error("identical infinities must compare equal")
	}
}

func TestApplyAndMap(t *testing.T) {
	x := FromSlice([]float64{-1, 2}, 2)
	y := x.Map(math.Abs)
	if x.At(0) != -1 {
		t.Fatal("Map must not mutate receiver")
	}
	if y.At(0) != 1 {
		t.Fatalf("Map result = %v", y.Data())
	}
	x.Apply(func(v float64) float64 { return v * v })
	if x.At(0) != 1 || x.At(1) != 4 {
		t.Fatalf("Apply result = %v", x.Data())
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Fatal("empty String")
	}
	large := New(100)
	if s := large.String(); s == "" {
		t.Fatal("empty String for large tensor")
	}
}

// Property: Sum is linear — Sum(a+b) == Sum(a)+Sum(b).
func TestPropertySumLinear(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological inputs
			}
		}
		a := FromSlice(append([]float64(nil), vals...), len(vals))
		b := a.Map(func(v float64) float64 { return 2 * v })
		lhs := Add(a, b).Sum()
		rhs := a.Sum() + b.Sum()
		return math.Abs(lhs-rhs) <= 1e-6*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hadamard with all-ones is identity.
func TestPropertyHadamardIdentity(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		a := FromSlice(append([]float64(nil), vals...), len(vals))
		ones := New(len(vals))
		ones.Fill(1)
		return Equal(Hadamard(a, ones), a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a := New(16).RandNormal(rand.New(rand.NewSource(7)), 0, 1)
	b := New(16).RandNormal(rand.New(rand.NewSource(7)), 0, 1)
	if !Equal(a, b, 0) {
		t.Fatal("same seed must give identical tensors")
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(1000).XavierInit(rng, 100, 50)
	limit := math.Sqrt(6.0 / 150.0)
	for _, v := range x.Data() {
		if v < -limit || v > limit {
			t.Fatalf("Xavier sample %g outside ±%g", v, limit)
		}
	}
	if x.AbsMax() < limit/2 {
		t.Fatal("Xavier samples suspiciously small; distribution looks wrong")
	}
}

func TestXavierInitBadFanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).XavierInit(rand.New(rand.NewSource(1)), 0, 5)
}
