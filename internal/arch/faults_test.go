package arch

import (
	"math/rand"
	"testing"

	"pipelayer/internal/fault"
	"pipelayer/internal/tensor"
)

func randTensor(n int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	w := tensor.New(n)
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64()
	}
	return w
}

// TestQuantizedZeroDensityIdentical: an attached zero-density injector leaves
// MatVec bit-identical to the plain array — the regression gate for the
// functional-model fault path.
func TestQuantizedZeroDensityIdentical(t *testing.T) {
	const rows, cols, bits = 23, 11, 16
	w := randTensor(rows*cols, 1)
	x := randTensor(rows, 2)

	plain := NewQuantized(w, rows, cols, bits)
	want := plain.MatVec(x)

	inj := fault.MustNew(fault.Config{Seed: 3, Spares: 4, Degrade: true})
	faulty := NewQuantized(w, rows, cols, bits)
	faulty.AttachFaults(inj, 9)
	got := faulty.MatVec(x)

	if !tensor.Equal(got, want, 0) {
		t.Fatalf("zero-density MatVec diverged:\n got %v\nwant %v", got, want)
	}
	if c := inj.Counters(); c != (fault.Counters{}) {
		t.Errorf("zero-density injector counted events: %+v", c)
	}
	// Reprogramming keeps the equivalence.
	w2 := randTensor(rows*cols, 7)
	plain.Program(w2)
	faulty.Program(w2)
	if !tensor.Equal(faulty.MatVec(x), plain.MatVec(x), 0) {
		t.Fatal("zero-density MatVec diverged after reprogram")
	}
}

// TestQuantizedRemapExact: stuck nibbles with enough spares are fully
// repaired — the remapped array computes the exact ideal result even across
// reprograms (training keeps rewriting the array).
func TestQuantizedRemapExact(t *testing.T) {
	const rows, cols, bits = 12, 8, 16
	w := randTensor(rows*cols, 4)
	x := randTensor(rows, 5)

	ideal := NewQuantized(w, rows, cols, bits)
	inj := fault.MustNew(fault.Config{Seed: 11, StuckOff: 0.002, StuckOn: 0.001, Spares: cols, Degrade: true})
	faulty := NewQuantized(w, rows, cols, bits)
	faulty.AttachFaults(inj, 1)

	c := inj.Counters()
	if c.Injected == 0 {
		t.Fatal("no nibbles injected; the stuck map is not wired in")
	}
	if c.Remapped == 0 {
		t.Fatal("no columns remapped despite stuck nibbles")
	}
	if c.Degraded != 0 || c.Corrupted != 0 {
		t.Fatalf("spares should have covered every faulty column: %+v", c)
	}
	if !tensor.Equal(faulty.MatVec(x), ideal.MatVec(x), 0) {
		t.Fatal("remapped array diverged from ideal")
	}
	w2 := randTensor(rows*cols, 6)
	ideal.Program(w2)
	faulty.Program(w2)
	if !tensor.Equal(faulty.MatVec(x), ideal.MatVec(x), 0) {
		t.Fatal("remapped array diverged from ideal after reprogram")
	}
}

// TestQuantizedDegradeExact: zero spares with degrade enabled falls back to
// digital emulation and stays exact.
func TestQuantizedDegradeExact(t *testing.T) {
	const rows, cols, bits = 12, 8, 16
	w := randTensor(rows*cols, 4)
	x := randTensor(rows, 5)

	ideal := NewQuantized(w, rows, cols, bits)
	inj := fault.MustNew(fault.Config{Seed: 11, StuckOff: 0.01, StuckOn: 0.005, Spares: 0, Degrade: true})
	faulty := NewQuantized(w, rows, cols, bits)
	faulty.AttachFaults(inj, 1)

	if c := inj.Counters(); c.Degraded == 0 {
		t.Fatalf("no columns degraded: %+v", c)
	}
	if !tensor.Equal(faulty.MatVec(x), ideal.MatVec(x), 0) {
		t.Fatal("degraded array diverged from ideal")
	}
	states := faulty.ColumnStates()
	sawDegraded := false
	for _, s := range states {
		if s == ColDegraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Errorf("ColumnStates reports no degraded column: %v", states)
	}
}

// TestQuantizedCorruptDiverges: no spares, no degrade — stuck nibbles corrupt
// the output.
func TestQuantizedCorruptDiverges(t *testing.T) {
	const rows, cols, bits = 12, 8, 16
	w := randTensor(rows*cols, 4)
	x := randTensor(rows, 5)

	ideal := NewQuantized(w, rows, cols, bits)
	inj := fault.MustNew(fault.Config{Seed: 11, StuckOff: 0.01, StuckOn: 0.005})
	faulty := NewQuantized(w, rows, cols, bits)
	faulty.AttachFaults(inj, 1)

	if c := inj.Counters(); c.Corrupted == 0 {
		t.Fatalf("no columns corrupt: %+v", c)
	}
	if tensor.Equal(faulty.MatVec(x), ideal.MatVec(x), 0) {
		t.Fatal("corrupt array computed the ideal result; faults are not reaching the readout")
	}
}

// TestQuantizedDriftAndReprogram: ticks shrink analog outputs by the drift
// factor; a reprogram restores them.
func TestQuantizedDriftAndReprogram(t *testing.T) {
	const rows, cols, bits = 10, 4, 16
	w := randTensor(rows*cols, 8)
	x := randTensor(rows, 9)

	inj := fault.MustNew(fault.Config{Seed: 1, Drift: 0.2})
	q := NewQuantized(w, rows, cols, bits)
	q.AttachFaults(inj, 1)
	fresh := q.MatVec(x)

	q.Tick(500)
	drifted := q.MatVec(x)
	factor := inj.DriftFactor(500)
	for j := 0; j < cols; j++ {
		// The implementation applies drift before the rescale constant, so
		// allow the one-ulp reassociation difference.
		want := fresh.At(j) * factor
		if diff := drifted.At(j) - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("col %d: drifted=%g want %g (factor %g)", j, drifted.At(j), want, factor)
		}
	}

	q.Program(w)
	restored := q.MatVec(x)
	if !tensor.Equal(restored, fresh, 0) {
		t.Fatal("reprogram did not reset drift")
	}
}

// TestQuantizedEnduranceFreezesWeights: once a cell exceeds its write budget
// it stops following reprograms.
func TestQuantizedEnduranceFreezesWeights(t *testing.T) {
	const rows, cols, bits = 6, 3, 16
	inj := fault.MustNew(fault.Config{Seed: 1, Endurance: 2, Spares: 0, Degrade: false})
	q := NewQuantized(randTensor(rows*cols, 1), rows, cols, bits)
	q.AttachFaults(inj, 1)
	for round := int64(2); round <= 5; round++ {
		q.Program(randTensor(rows*cols, round))
	}
	c := inj.Counters()
	if c.WornOut != rows*cols {
		t.Fatalf("worn-out cells = %d, want %d", c.WornOut, rows*cols)
	}
	if c.Corrupted != cols {
		t.Errorf("corrupt columns = %d, want %d", c.Corrupted, cols)
	}
	// All cells froze at the round-2 codes (writes 1 and 2 succeeded,
	// write 3 exceeded the budget), so the output matches that epoch.
	frozen := NewQuantized(randTensor(rows*cols, 2), rows, cols, bits)
	// Scales differ (Program refreshed q.scale from the round-5 weights),
	// so compare the effective codes instead of MatVec outputs.
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			if got, want := q.faults.effCode(r*q.faults.physCols+j), float64(frozen.WeightCode(r, j)); got != want {
				t.Fatalf("cell (%d,%d): frozen code %g, want %g", r, j, got, want)
			}
		}
	}
}

// TestQuantizedTransientWriteFailureRetryAndGiveUp: a transiently failing
// write is retried at most Retries times; a cell that still fails is given
// up and frozen at the code it held (0 before its first write), and with no
// spares and no degrade every column holding one is left corrupt.
func TestQuantizedTransientWriteFailureRetryAndGiveUp(t *testing.T) {
	const rows, cols, bits, retries = 8, 8, 16, 2
	inj := fault.MustNew(fault.Config{Seed: 21, WriteFail: 0.9, Retries: retries})
	q := NewQuantized(randTensor(rows*cols, 3), rows, cols, bits)
	q.AttachFaults(inj, 1)

	c := inj.Counters()
	if c.Retried == 0 {
		t.Error("p=0.9 transient failures never retried")
	}
	if c.WriteFailed == 0 {
		t.Error("p=0.9 with 2 retries never gave a cell up")
	}
	if c.Retried > retries*rows*cols {
		t.Errorf("%d retries for %d one-write cells, more than %d each", c.Retried, rows*cols, retries)
	}
	frozen := 0
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			cell := r*q.faults.physCols + j
			got, want := q.faults.effCode(cell), float64(q.WeightCode(r, j))
			if q.faults.frozen[cell] {
				frozen++
				want = 0
			}
			if got != want {
				t.Errorf("cell (%d,%d) frozen=%v reads code %g, want %g", r, j, q.faults.frozen[cell], got, want)
			}
		}
	}
	if int64(frozen) != c.WriteFailed {
		t.Errorf("%d frozen cells, %d counted give-ups", frozen, c.WriteFailed)
	}
	for j, s := range q.ColumnStates() {
		if s != ColCorrupt {
			t.Errorf("column %d is in state %d, want ColCorrupt (no spares, no degrade)", j, s)
		}
	}
}
