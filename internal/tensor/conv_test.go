package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvOutDim(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{32, 3, 1, 0, 30},
		{32, 3, 1, 1, 32},
		{28, 5, 1, 0, 24},
		{224, 11, 4, 0, 54},
		{224, 3, 1, 1, 224},
		{2, 2, 2, 0, 1},
	}
	for _, c := range cases {
		if got := ConvOutDim(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutDim(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestPad2DAndCrop2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := New(3, 5, 4).RandNormal(rng, 0, 1)
	p := Pad2D(x, 2)
	if p.Dim(1) != 9 || p.Dim(2) != 8 {
		t.Fatalf("Pad2D shape = %v", p.Shape())
	}
	if p.At(0, 0, 0) != 0 || p.At(2, 8, 7) != 0 {
		t.Fatal("padding region must be zero")
	}
	if !Equal(Crop2D(p, 2), x, 0) {
		t.Fatal("Crop2D(Pad2D(x)) != x")
	}
}

func TestPad2DZeroIsCopy(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	p := Pad2D(x, 0)
	p.Set(99, 0, 0, 0)
	if x.At(0, 0, 0) != 1 {
		t.Fatal("Pad2D(0) must not alias input")
	}
}

func TestRot180(t *testing.T) {
	k := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	r := Rot180(k)
	want := FromSlice([]float64{
		9, 8, 7,
		6, 5, 4,
		3, 2, 1,
	}, 1, 1, 3, 3)
	if !Equal(r, want, 0) {
		t.Fatalf("Rot180 = %v", r.Data())
	}
	if !Equal(Rot180(r), k, 0) {
		t.Fatal("Rot180 must be an involution")
	}
}

func TestIm2ColSingleWindow(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	cols := Im2Col(x, 2, 2, 1, 0)
	if cols.Dim(0) != 4 || cols.Dim(1) != 1 {
		t.Fatalf("Im2Col shape = %v", cols.Shape())
	}
	want := []float64{1, 2, 3, 4}
	for i, v := range want {
		if cols.At(i, 0) != v {
			t.Fatalf("col[%d] = %g, want %g", i, cols.At(i, 0), v)
		}
	}
}

func TestIm2ColPaperExampleDims(t *testing.T) {
	// The paper's Figure 4: layer l is 14×14×128 with 2×2 kernels producing
	// 13×13 windows; each input vector ("yellow bar") has 2*2*128 = 512
	// entries and there are 169 windows per output row-scan... the paper
	// quotes 52? Use exact arithmetic: windows = 13*13 = 169.
	x := New(128, 14, 14)
	cols := Im2Col(x, 2, 2, 1, 0)
	if cols.Dim(0) != 512 {
		t.Fatalf("input vector length = %d, want 512", cols.Dim(0))
	}
	if cols.Dim(1) != 169 {
		t.Fatalf("window count = %d, want 169", cols.Dim(1))
	}
}

func TestConv2DMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		c := 1 + rng.Intn(4)
		h := 4 + rng.Intn(6)
		w := 4 + rng.Intn(6)
		oc := 1 + rng.Intn(4)
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		if ConvOutDim(h, k, stride, pad) <= 0 || ConvOutDim(w, k, stride, pad) <= 0 {
			continue
		}
		x := New(c, h, w).RandNormal(rng, 0, 1)
		kern := New(oc, c, k, k).RandNormal(rng, 0, 1)
		bias := New(oc).RandNormal(rng, 0, 1)
		a := Conv2D(x, kern, bias, stride, pad)
		b := Conv2DDirect(x, kern, bias, stride, pad)
		if !Equal(a, b, 1e-9) {
			t.Fatalf("trial %d: im2col conv != direct conv (c=%d h=%d w=%d oc=%d k=%d s=%d p=%d)",
				trial, c, h, w, oc, k, stride, pad)
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 1-channel 3x3 input, single 2x2 kernel of ones => each output is the
	// window sum.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	k := FromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	y := Conv2D(x, k, nil, 1, 0)
	want := FromSlice([]float64{12, 16, 24, 28}, 1, 2, 2)
	if !Equal(y, want, 1e-12) {
		t.Fatalf("Conv2D = %v, want %v", y.Data(), want.Data())
	}
}

func TestConv2DBias(t *testing.T) {
	x := New(1, 2, 2)
	k := New(2, 1, 1, 1)
	bias := FromSlice([]float64{1.5, -2}, 2)
	y := Conv2D(x, k, bias, 1, 0)
	if y.At(0, 0, 0) != 1.5 || y.At(1, 1, 1) != -2 {
		t.Fatalf("bias not applied: %v", y.Data())
	}
}

func TestConv2DChannelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Conv2D(New(3, 4, 4), New(2, 2, 3, 3), nil, 1, 0)
}

// Property: Col2Im is the adjoint of Im2Col:
// <Im2Col(x), y> == <x, Col2Im(y)> for all x, y.
func TestPropertyIm2ColAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(3)
		h := 3 + rng.Intn(4)
		w := 3 + rng.Intn(4)
		k := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		if ConvOutDim(h, k, stride, pad) <= 0 || ConvOutDim(w, k, stride, pad) <= 0 {
			return true
		}
		x := New(c, h, w).RandNormal(rng, 0, 1)
		cols := Im2Col(x, k, k, stride, pad)
		y := New(cols.Dim(0), cols.Dim(1)).RandNormal(rng, 0, 1)
		lhs := Dot(cols, y)
		rhs := Dot(x, Col2Im(y, c, h, w, k, k, stride, pad))
		return absf(lhs-rhs) < 1e-8*(1+absf(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestIm2ColIntoOverwrites: unrolling into a reused buffer gives Im2Col's
// matrix exactly, whatever the buffer held, padding zeros included.
func TestIm2ColIntoOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, g := range []struct{ c, h, w, k, stride, pad int }{
		{1, 28, 28, 3, 1, 1},
		{4, 14, 14, 3, 1, 1},
		{2, 7, 5, 3, 2, 2},
		{3, 6, 6, 2, 1, 0},
	} {
		x := New(g.c, g.h, g.w).RandNormal(rng, 0, 1)
		want := Im2Col(x, g.k, g.k, g.stride, g.pad)
		cols := New(want.Shape()...)
		cols.Fill(7.5) // stale contents; Equal would let a NaN pass
		Im2ColInto(cols, x, g.k, g.k, g.stride, g.pad)
		if !Equal(cols, want, 0) {
			t.Fatalf("%+v: Im2ColInto differs from Im2Col", g)
		}
	}
}

// Property: convolution is linear in the input.
func TestPropertyConvLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x1 := New(2, 5, 5).RandNormal(rng, 0, 1)
		x2 := New(2, 5, 5).RandNormal(rng, 0, 1)
		k := New(3, 2, 3, 3).RandNormal(rng, 0, 1)
		lhs := Conv2D(Add(x1, x2), k, nil, 1, 1)
		rhs := Add(Conv2D(x1, k, nil, 1, 1), Conv2D(x2, k, nil, 1, 1))
		return Equal(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
