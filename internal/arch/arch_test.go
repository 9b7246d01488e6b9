package arch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipelayer/internal/fault"
	"pipelayer/internal/nn"
	"pipelayer/internal/reram"
	"pipelayer/internal/tensor"
)

func TestQuantizedMatVecAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows, cols := 64, 16
	w := tensor.New(rows*cols).RandNormal(rng, 0, 1)
	q := NewQuantized(w, rows, cols, 16)
	x := tensor.New(rows).RandNormal(rng, 0, 1)
	got := q.MatVec(x)
	for j := 0; j < cols; j++ {
		s := 0.0
		for i := 0; i < rows; i++ {
			s += x.At(i) * w.Data()[i*cols+j]
		}
		if math.Abs(got.At(j)-s) > 1e-3*(1+math.Abs(s)) {
			t.Fatalf("col %d: %g vs %g", j, got.At(j), s)
		}
	}
}

// The quantized fast path must agree bit for bit with the exact spike-domain
// crossbar simulation (they use identical code assignment), both in the
// per-vector reference MatVec and in the batched MatVecCols kernel every
// engine reads its arrays through.
func TestQuantizedMatchesSpikePath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(6)
		w := tensor.New(rows*cols).RandNormal(rng, 0, 1)
		x := tensor.New(rows).RandNormal(rng, 0, 1)
		bits := 4 + rng.Intn(8)

		q := NewQuantized(w, rows, cols, bits)
		ra := reram.NewResolutionArray(w, rows, cols)
		if !tensor.Identical(q.MatVec(x), ra.MatVecFloat(x, bits)) {
			return false
		}

		vecs := []*tensor.Tensor{x, tensor.New(rows).RandNormal(rng, 0, 1), tensor.New(rows)}
		batched := q.MatVecCols(PackCols(vecs))
		for c, v := range vecs {
			col := tensor.New(cols)
			for j := range col.Data() {
				col.Data()[j] = batched.At(j, c)
			}
			if !tensor.Identical(col, ra.MatVecFloat(v, bits)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizedZeroInput(t *testing.T) {
	q := NewQuantized(tensor.FromSlice([]float64{1, -1}, 2), 2, 1, 8)
	if q.MatVec(tensor.New(2)).At(0) != 0 {
		t.Fatal("zero input must give zero")
	}
}

func TestQuantizedSegments(t *testing.T) {
	w := tensor.FromSlice([]float64{-1.0, 1.0}, 2)
	q := NewQuantized(w, 2, 1, 8)
	segs, neg := q.Segments(0, 0)
	if !neg {
		t.Fatal("first weight is negative")
	}
	for _, s := range segs {
		if s != 0xF {
			t.Fatalf("full-scale segments = %v", segs)
		}
	}
}

func TestReluBackwardMatchesFramework(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := nn.NewReLU("r")
	x := tensor.New(32).RandNormal(rng, 0, 1)
	d := r.Forward(x)
	g := tensor.New(32).RandNormal(rng, 0, 1)
	want := r.Backward(g)
	got := ReluBackward(g, d)
	if !tensor.Equal(got, want, 0) {
		t.Fatal("ReluBackward != framework backward")
	}
}

func TestMaxPoolBackwardMatchesFramework(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := nn.NewMaxPool("p", 3, 8, 8, 2)
	x := tensor.New(3, 8, 8).RandNormal(rng, 0, 1)
	p.Forward(x)
	g := tensor.New(3, 4, 4).RandNormal(rng, 0, 1)
	want := p.Backward(g)
	got := MaxPoolBackward(g, x, 2)
	if !tensor.Equal(got, want, 0) {
		t.Fatal("MaxPoolBackward != framework backward")
	}
}

// The Figure 11 claim: conv error backward equals 'full' convolution with
// reordered, 180°-rotated kernels — verified against the autograd framework.
func TestConvErrorBackwardMatchesFramework(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inC := 1 + rng.Intn(3)
		outC := 1 + rng.Intn(3)
		h := 5 + rng.Intn(4)
		k := 1 + rng.Intn(3)
		pad := rng.Intn(2)
		if h+2*pad < k {
			return true
		}
		conv := nn.NewConv("c", inC, h, h, outC, k, 1, pad, rng)
		x := tensor.New(inC, h, h).RandNormal(rng, 0, 1)
		y := conv.Forward(x)
		g := tensor.New(y.Shape()...).RandNormal(rng, 0, 1)
		want := conv.Backward(g)
		got := ConvErrorBackward(g, conv.Weights().Value, pad)
		return tensor.Equal(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The Figure 12 claim: ∂W is the correlation of stored inputs with errors.
func TestConvDerivativeMatchesFramework(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inC := 1 + rng.Intn(3)
		outC := 1 + rng.Intn(3)
		h := 5 + rng.Intn(4)
		k := 1 + rng.Intn(3)
		pad := rng.Intn(2)
		if h+2*pad < k {
			return true
		}
		conv := nn.NewConv("c", inC, h, h, outC, k, 1, pad, rng)
		x := tensor.New(inC, h, h).RandNormal(rng, 0, 1)
		y := conv.Forward(x)
		g := tensor.New(y.Shape()...).RandNormal(rng, 0, 1)
		conv.Weights().ZeroGrad()
		conv.Bias().ZeroGrad()
		conv.Backward(g)
		want := conv.Weights().Grad
		got := ConvDerivative(x, g, k, pad)
		return tensor.Equal(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardKernelsShape(t *testing.T) {
	k := tensor.New(4, 3, 5, 5)
	b := BackwardKernels(k)
	sh := b.Shape()
	if sh[0] != 3 || sh[1] != 4 || sh[2] != 5 || sh[3] != 5 {
		t.Fatalf("BackwardKernels shape = %v", sh)
	}
	// Involution up to the channel swap: applying twice restores K.
	if !tensor.Equal(BackwardKernels(b), k, 0) {
		t.Fatal("BackwardKernels twice must restore the original bank")
	}
}

func TestUpdateUnitMatchesFloatUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := NewUpdateUnit(16)
	n := 256
	w := tensor.New(n).RandNormal(rng, 0, 0.5)
	grad := tensor.New(n).RandNormal(rng, 0, 1)
	scale := 2.0
	ideal := w.Clone()
	ideal.AxpyInPlace(-0.1/64.0, grad)
	dev := u.Apply(w, grad, 0.1, 64, scale)
	step := scale / 65535.0
	if dev > 3*step {
		t.Fatalf("hardware update deviates %g, > 3 quantization steps (%g)", dev, step)
	}
	for i := 0; i < n; i++ {
		if math.Abs(w.At(i)-ideal.At(i)) > 3*step {
			t.Fatalf("weight %d: hw %g vs ideal %g", i, w.At(i), ideal.At(i))
		}
	}
}

// TestUpdateMatchesApply: Update writes Apply's weights bit for bit,
// returns their AbsMax and leaves the gradient zeroed, through the corners
// too: signed zeros, saturating and non-finite gradients, and a NaN weight.
func TestUpdateMatchesApply(t *testing.T) {
	u := NewUpdateUnit(16)
	w, g := randTensor(64, 1), randTensor(64, 2)
	w.Data()[0], w.Data()[1], w.Data()[2] = 0, math.Copysign(0, -1), math.NaN()
	g.Data()[3], g.Data()[4], g.Data()[5] = 1e9, -1e9, 1e300
	g.Data()[6], g.Data()[7] = math.NaN(), math.Inf(-1)
	for _, batch := range []int{1, 3, 8} {
		want, got, consumed := w.Clone(), w.Clone(), g.Clone()
		scale := 2 * w.AbsMax()
		u.Apply(want, g, 0.1, batch, scale)
		absMax := u.Update(got, consumed, 0.1, batch, scale)
		for i, v := range got.Data() {
			if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("batch %d weight %d: Update %v, Apply %v", batch, i, v, want.Data()[i])
			}
		}
		if absMax != want.AbsMax() {
			t.Fatalf("batch %d: Update returned AbsMax %v, want %v", batch, absMax, want.AbsMax())
		}
		for i, v := range consumed.Data() {
			if math.Float64bits(v) != 0 {
				t.Fatalf("batch %d: gradient %d left at %v, want +0", batch, i, v)
			}
		}
	}
}

// TestProgramKernelsMatchesProgram: one ProgramKernels call leaves a kernel
// array pair as Program leaves the transposed kernel matrix and the
// transposed reordered kernels, for dense (k = 1) and conv banks, on ideal
// and faulty arrays.
func TestProgramKernelsMatchesProgram(t *testing.T) {
	for _, sh := range []struct{ outC, inC, k int }{{5, 7, 1}, {4, 3, 3}, {2, 1, 5}} {
		n := sh.outC * sh.inC * sh.k * sh.k
		w := randTensor(n, int64(n)).Reshape(sh.outC, sh.inC, sh.k, sh.k)
		w.Data()[0] = 0
		back := BackwardKernels(w).Reshape(sh.inC, sh.outC*sh.k*sh.k)
		fRows, bRows := sh.inC*sh.k*sh.k, sh.outC*sh.k*sh.k
		for _, faulty := range []bool{false, true} {
			fwd, bwd := NewKernelArrays(w, w.AbsMax(), sh.k, 8)
			wantF := NewQuantized(tensor.Transpose(w.Reshape(sh.outC, fRows)), fRows, sh.outC, 8)
			wantB := NewQuantized(tensor.Transpose(back), bRows, sh.inC, 8)
			if faulty {
				cfg := fault.Config{Seed: 9, StuckOff: 0.02, StuckOn: 0.01, Spares: 1, Degrade: true, WriteFail: 0.05, Retries: 1}
				inj, want := fault.MustNew(cfg), fault.MustNew(cfg)
				fwd.AttachFaults(inj, 0)
				bwd.AttachFaults(inj, 1)
				wantF.AttachFaults(want, 0)
				wantB.AttachFaults(want, 1)
				ProgramKernels(fwd, bwd, w, w.AbsMax(), sh.k)
				wantF.Program(tensor.Transpose(w.Reshape(sh.outC, fRows)))
				wantB.Program(tensor.Transpose(back))
				if inj.Counters() != want.Counters() {
					t.Fatalf("%+v: fault counters %+v, want %+v", sh, inj.Counters(), want.Counters())
				}
			}
			for _, p := range []struct{ got, want *Quantized }{{fwd, wantF}, {bwd, wantB}} {
				if p.got.Scale() != p.want.Scale() {
					t.Fatalf("%+v faulty=%v: scale %v, want %v", sh, faulty, p.got.Scale(), p.want.Scale())
				}
				for r := 0; r < p.got.Rows; r++ {
					for c := 0; c < p.got.Cols; c++ {
						if p.got.WeightCode(r, c) != p.want.WeightCode(r, c) {
							t.Fatalf("%+v faulty=%v: code (%d,%d) %d, want %d", sh, faulty, r, c, p.got.WeightCode(r, c), p.want.WeightCode(r, c))
						}
					}
				}
				x := randTensor(p.got.Rows, 3)
				if !tensor.Equal(p.got.MatVec(x), p.want.MatVec(x), 0) {
					t.Fatalf("%+v faulty=%v: readouts differ", sh, faulty)
				}
			}
		}
	}
}

func TestUpdateUnitAverageFactor(t *testing.T) {
	u := NewUpdateUnit(16)
	for _, b := range []int{1, 2, 16, 64} {
		got := u.AverageFactor(b)
		want := 1.0 / float64(b)
		if math.Abs(got-want) > 1.0/65536 {
			t.Fatalf("B=%d: factor %g vs %g", b, got, want)
		}
	}
}

func TestUpdateUnitValidation(t *testing.T) {
	u := NewUpdateUnit(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive scale")
		}
	}()
	u.Apply(tensor.New(1), tensor.New(1), 0.1, 4, 0)
}

func TestTable1Cases(t *testing.T) {
	cases := Table1(3)
	if len(cases) != 4 {
		t.Fatalf("Table 1 has %d cases, want 4", len(cases))
	}
	longest := LongestCase(cases)
	if longest.Name != "backward-inner" {
		t.Fatalf("longest cycle case = %s, want backward-inner (two array passes)", longest.Name)
	}
	// Forward must follow the Figure 9 component order.
	fwd := cases[0].Ops
	if fwd[0] != OpMemoryRead || fwd[len(fwd)-1] != OpMemoryWrite {
		t.Fatal("forward cycle must start with memory read and end with memory write")
	}
}
