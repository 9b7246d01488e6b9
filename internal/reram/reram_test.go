package reram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipelayer/internal/tensor"
)

func TestCellProgramAndRead(t *testing.T) {
	var c Cell
	c.Program(9)
	if c.Code() != 9 || c.Conductance() != 9 {
		t.Fatalf("cell: code=%d g=%g", c.Code(), c.Conductance())
	}
}

func TestCellProgramOutOfRangePanics(t *testing.T) {
	var c Cell
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Program(16)
}

func TestCrossbarMatVecSpikeExact(t *testing.T) {
	x := NewCrossbar(3, 2)
	// G = [[1,2],[3,4],[5,6]]
	x.ProgramCodes([]uint8{1, 2, 3, 4, 5, 6})
	out := x.MatVecSpike([]uint64{1, 2, 3}, 4)
	// col0: 1*1+2*3+3*5 = 22 ; col1: 1*2+2*4+3*6 = 28
	if out[0] != 22 || out[1] != 28 {
		t.Fatalf("MatVecSpike = %v", out)
	}
}

func TestCrossbarStatsCounting(t *testing.T) {
	x := NewCrossbar(2, 3)
	x.ProgramCodes([]uint8{1, 1, 1, 1, 1, 1})
	if x.Stats().CellWrites != 6 {
		t.Fatalf("writes = %d", x.Stats().CellWrites)
	}
	x.MatVecSpike([]uint64{3, 1}, 2) // 2+1 = 3 input spikes, shared across columns
	if got := x.Stats().InputSpikes; got != 3 {
		t.Fatalf("input spikes = %d, want 3", got)
	}
	if x.Stats().OutputSpikes != (3+1)*3 {
		t.Fatalf("output spikes = %d", x.Stats().OutputSpikes)
	}
	x.ResetStats()
	if x.Stats() != (Stats{}) {
		t.Fatal("ResetStats must clear counters")
	}
}

func TestSignedPairSubtraction(t *testing.T) {
	p := NewSignedPair(2, 1)
	p.Pos.ProgramCodes([]uint8{5, 0})
	p.Neg.ProgramCodes([]uint8{0, 3})
	out := p.MatVecSpike([]uint64{1, 1}, 1)
	if out[0] != 5-3 {
		t.Fatalf("signed result = %d, want 2", out[0])
	}
}

func TestResolutionArrayExactCodes(t *testing.T) {
	// Weight +1.0 maps to code 65535; input code 3 → product 3*65535.
	w := tensor.FromSlice([]float64{1.0}, 1)
	ra := NewResolutionArray(w, 1, 1)
	out := ra.MatVecCodes([]uint64{3}, 4)
	if out[0] != 3*65535 {
		t.Fatalf("MatVecCodes = %d, want %d", out[0], 3*65535)
	}
}

func TestResolutionArrayMatVecFloatAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows, cols := 32, 8
	w := tensor.New(rows*cols).RandNormal(rng, 0, 1)
	ra := NewResolutionArray(w, rows, cols)
	x := tensor.New(rows).RandUniform(rng, 0, 1)
	got := ra.MatVecFloat(x, 16)
	// Reference: out_j = Σ_i x_i · w_ij with w row-major (rows, cols).
	ref := tensor.New(cols)
	for j := 0; j < cols; j++ {
		s := 0.0
		for i := 0; i < rows; i++ {
			s += x.At(i) * w.Data()[i*cols+j]
		}
		ref.Data()[j] = s
	}
	for j := 0; j < cols; j++ {
		if math.Abs(got.At(j)-ref.At(j)) > 1e-3*(1+math.Abs(ref.At(j))) {
			t.Fatalf("col %d: analog %g vs exact %g", j, got.At(j), ref.At(j))
		}
	}
}

func TestResolutionArraySignedInputs(t *testing.T) {
	// Backward-phase error vectors are signed; two-pass input must work.
	rng := rand.New(rand.NewSource(3))
	rows, cols := 16, 4
	w := tensor.New(rows*cols).RandNormal(rng, 0, 1)
	ra := NewResolutionArray(w, rows, cols)
	x := tensor.New(rows).RandNormal(rng, 0, 1) // signed
	got := ra.MatVecFloat(x, 16)
	for j := 0; j < cols; j++ {
		s := 0.0
		for i := 0; i < rows; i++ {
			s += x.At(i) * w.Data()[i*cols+j]
		}
		if math.Abs(got.At(j)-s) > 1e-3*(1+math.Abs(s)) {
			t.Fatalf("col %d: analog %g vs exact %g", j, got.At(j), s)
		}
	}
}

func TestResolutionArrayZeroInput(t *testing.T) {
	w := tensor.FromSlice([]float64{1, -1}, 2)
	ra := NewResolutionArray(w, 2, 1)
	out := ra.MatVecFloat(tensor.New(2), 8)
	if out.At(0) != 0 {
		t.Fatalf("zero input must give zero output, got %g", out.At(0))
	}
}

func TestResolutionArrayReprogram(t *testing.T) {
	w1 := tensor.FromSlice([]float64{0.5}, 1)
	ra := NewResolutionArray(w1, 1, 1)
	before := ra.MatVecFloat(tensor.FromSlice([]float64{1}, 1), 8).At(0)
	ra.Program(tensor.FromSlice([]float64{-0.5}, 1))
	after := ra.MatVecFloat(tensor.FromSlice([]float64{1}, 1), 8).At(0)
	if math.Abs(before-0.5) > 1e-2 || math.Abs(after+0.5) > 1e-2 {
		t.Fatalf("reprogram failed: before %g after %g", before, after)
	}
}

// Property: the resolution-compensated array computes the exact integer
// product for arbitrary 16-bit weight codes and small inputs.
func TestPropertyResolutionShiftAdd(t *testing.T) {
	f := func(wcode uint16, xraw uint8) bool {
		// A second weight of exactly 1.0 pins the scale so the first weight's
		// code is wcode itself; its input is held at zero.
		w := tensor.FromSlice([]float64{float64(wcode) / 65535.0, 1.0}, 2)
		ra := NewResolutionArray(w, 2, 1)
		x := uint64(xraw % 16)
		out := ra.MatVecCodes([]uint64{x, 0}, 4)
		return out[0] == int64(x)*int64(wcode)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoidLUTAccuracy(t *testing.T) {
	l := SigmoidLUT(1024)
	for _, x := range []float64{-5, -1, 0, 0.3, 2, 6} {
		want := 1 / (1 + math.Exp(-x))
		if math.Abs(l.Lookup(x)-want) > 0.01 {
			t.Fatalf("sigmoid LUT at %g: %g vs %g", x, l.Lookup(x), want)
		}
	}
	if l.Lookup(-100) > 0.001 || l.Lookup(100) < 0.999 {
		t.Fatal("LUT must clamp outside its domain")
	}
}

func TestLUTValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLUT(math.Abs, 0, 1, 1) },
		func() { NewLUT(math.Abs, 1, 0, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
