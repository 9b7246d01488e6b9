package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipelayer/internal/tensor"
)

func TestLevels(t *testing.T) {
	cases := map[int]int{2: 1, 3: 3, 4: 7, 8: 127, 16: 32767}
	for bits, want := range cases {
		if got := Levels(bits); got != want {
			t.Errorf("Levels(%d) = %d, want %d", bits, got, want)
		}
	}
}

func TestLevelsPanicsBelow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Levels(1)
}

func TestQuantizePreservesZeroTensor(t *testing.T) {
	z := tensor.New(5)
	q := Quantize(z, 4)
	if !tensor.Equal(q, z, 0) {
		t.Fatal("quantizing zeros must give zeros")
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(64).RandNormal(rng, 0, 1)
	q1 := Quantize(x, 5)
	q2 := Quantize(q1, 5)
	if !tensor.Equal(q1, q2, 1e-12) {
		t.Fatal("quantization must be idempotent at the same bit width")
	}
}

func TestQuantizeErrorMonotoneInBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(256).RandNormal(rng, 0, 1)
	prev := math.Inf(1)
	for bits := 2; bits <= 8; bits++ {
		e := QuantizeError(x, bits)
		if e > prev+1e-12 {
			t.Fatalf("quantize error increased from %g to %g at %d bits", prev, e, bits)
		}
		prev = e
	}
	if QuantizeError(x, 8) > QuantizeError(x, 2) {
		t.Fatal("8-bit error must not exceed 2-bit error")
	}
}

func TestQuantizeBoundsError(t *testing.T) {
	// Max quantization error is half a step.
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(128).RandUniform(rng, -1, 1)
	bits := 4
	q := Quantize(x, bits)
	step := x.AbsMax() / float64(Levels(bits))
	for i := range x.Data() {
		if math.Abs(x.Data()[i]-q.Data()[i]) > step/2+1e-12 {
			t.Fatalf("error at %d exceeds half step", i)
		}
	}
}

func TestToFromFixedRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		v := math.Mod(raw, 1) // confine to [-1, 1)
		code := ToFixed(v, 1.0, 8)
		back := FromFixed(code, 1.0, 8)
		return math.Abs(v-back) <= 0.5/float64(Levels(8))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestToFixedSaturates(t *testing.T) {
	if got := ToFixed(10, 1, 4); got != Levels(4) {
		t.Fatalf("positive saturation = %d", got)
	}
	if got := ToFixed(-10, 1, 4); got != -Levels(4) {
		t.Fatalf("negative saturation = %d", got)
	}
	if got := ToFixed(0.5, 0, 4); got != 0 {
		t.Fatalf("zero scale must yield 0, got %d", got)
	}
}

// TestDecomposeCompose16RoundTrip checks every 16-bit code: the weight
// update skips the segment read and write-back because composing a code's
// segments gives the code back.
func TestDecomposeCompose16RoundTrip(t *testing.T) {
	for c := 0; c <= math.MaxUint16; c++ {
		if got := Compose16(Decompose16(uint16(c))); got != uint16(c) {
			t.Fatalf("Compose16(Decompose16(%#04x)) = %#04x", c, got)
		}
	}
}

func TestDecompose16Known(t *testing.T) {
	segs := Decompose16(0xABCD)
	want := [Groups]uint8{0xD, 0xC, 0xB, 0xA}
	if segs != want {
		t.Fatalf("Decompose16(0xABCD) = %v, want %v", segs, want)
	}
}

func TestDecompose16SegmentsAre4Bit(t *testing.T) {
	f := func(w uint16) bool {
		for _, s := range Decompose16(w) {
			if s > 0xF {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateSegments(t *testing.T) {
	old := Decompose16(1000)
	segs, nw := UpdateSegments(old, 200)
	if nw != 800 {
		t.Fatalf("new weight = %d, want 800", nw)
	}
	if Compose16(segs) != 800 {
		t.Fatal("segments inconsistent with composed value")
	}
}

func TestUpdateSegmentsSaturates(t *testing.T) {
	_, lo := UpdateSegments(Decompose16(5), 100)
	if lo != 0 {
		t.Fatalf("low saturation = %d", lo)
	}
	_, hi := UpdateSegments(Decompose16(65000), -10000)
	if hi != math.MaxUint16 {
		t.Fatalf("high saturation = %d", hi)
	}
}

func TestSignedToMagnitudes(t *testing.T) {
	if p, n := SignedToMagnitudes(3); p != 3 || n != 0 {
		t.Fatalf("pos case: %g, %g", p, n)
	}
	if p, n := SignedToMagnitudes(-2.5); p != 0 || n != 2.5 {
		t.Fatalf("neg case: %g, %g", p, n)
	}
}

// Property: SplitSigned satisfies t == pos − neg with pos,neg ≥ 0 and at most
// one of pos/neg nonzero per element.
func TestPropertySplitSigned(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(32).RandNormal(rng, 0, 2)
		pos, neg := SplitSigned(x)
		for i := range x.Data() {
			p, n := pos.Data()[i], neg.Data()[i]
			if p < 0 || n < 0 {
				return false
			}
			if p != 0 && n != 0 {
				return false
			}
			if math.Abs((p-n)-x.Data()[i]) > 1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
