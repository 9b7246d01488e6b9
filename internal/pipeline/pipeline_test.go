package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipelayer/internal/mapping"
	"pipelayer/internal/telemetry"
)

func TestSimulatePipelinedTrainingMatchesTable2(t *testing.T) {
	for _, c := range []struct{ L, B, N int }{
		{3, 4, 8}, {3, 64, 128}, {5, 8, 32}, {11, 16, 64}, {19, 32, 64}, {2, 1, 6},
	} {
		res := Simulate(Config{L: c.L, B: c.B, N: c.N, Pipelined: true, Training: true})
		want := mapping.PipelinedTrainingCycles(c.L, c.B, c.N)
		if res.Cycles != want {
			t.Errorf("L=%d B=%d N=%d: simulated %d cycles, formula %d", c.L, c.B, c.N, res.Cycles, want)
		}
	}
}

func TestSimulateNonPipelinedTrainingMatchesTable2(t *testing.T) {
	for _, c := range []struct{ L, B, N int }{
		{3, 4, 8}, {5, 8, 16}, {8, 2, 10}, {19, 4, 8},
	} {
		res := Simulate(Config{L: c.L, B: c.B, N: c.N, Pipelined: false, Training: true})
		want := mapping.NonPipelinedTrainingCycles(c.L, c.B, c.N)
		if res.Cycles != want {
			t.Errorf("L=%d B=%d N=%d: simulated %d cycles, formula %d", c.L, c.B, c.N, res.Cycles, want)
		}
	}
}

func TestSimulateTestingMatchesFormulas(t *testing.T) {
	for _, c := range []struct{ L, N int }{{3, 10}, {8, 100}, {19, 64}, {1, 5}} {
		p := Simulate(Config{L: c.L, N: c.N, Pipelined: true})
		if p.Cycles != mapping.PipelinedTestingCycles(c.L, c.N) {
			t.Errorf("pipelined testing L=%d N=%d: %d cycles", c.L, c.N, p.Cycles)
		}
		np := Simulate(Config{L: c.L, N: c.N, Pipelined: false})
		if np.Cycles != mapping.NonPipelinedTestingCycles(c.L, c.N) {
			t.Errorf("non-pipelined testing L=%d N=%d: %d cycles", c.L, c.N, np.Cycles)
		}
	}
}

// Property: for random configurations the event simulation always agrees
// with the closed forms and never double-books a unit.
func TestPropertySimulationMatchesFormulas(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		L := 1 + rng.Intn(12)
		B := 1 + rng.Intn(16)
		N := B * (1 + rng.Intn(6))
		pip := rng.Intn(2) == 0
		res := Simulate(Config{L: L, B: B, N: N, Pipelined: pip, Training: true})
		var want int
		if pip {
			want = mapping.PipelinedTrainingCycles(L, B, N)
		} else {
			want = mapping.NonPipelinedTrainingCycles(L, B, N)
		}
		return res.Cycles == want && res.MaxUnitUsePerCycle == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateBufferDepthsFollowRule(t *testing.T) {
	// B must exceed the largest buffer depth (2(L−1)+1 = 9) for the pipeline
	// to fill the deepest buffer completely.
	L, B, N := 5, 16, 32
	res := Simulate(Config{L: L, B: B, N: N, Pipelined: true, Training: true})
	for l := 1; l < L; l++ {
		name := fmt.Sprintf("d%d", l)
		want := mapping.BufferDepth(L, l)
		if res.BufferDepth[name] != want {
			t.Errorf("buffer %s depth %d, want %d", name, res.BufferDepth[name], want)
		}
		// The schedule must actually exercise the buffer close to its depth:
		// peak occupancy equals the depth (the rule is tight).
		if res.PeakOccupancy[name] != want {
			t.Errorf("buffer %s peak occupancy %d, want %d (depth rule must be tight)",
				name, res.PeakOccupancy[name], want)
		}
	}
}

func TestBufferDepthRuleIsMinimal(t *testing.T) {
	// Replaying the pipelined write/consume pattern of layer l: writes every
	// cycle, consumption 2(L−l)+1 cycles after the write. The paper's depth
	// 2(L−l)+1 must succeed and any smaller ring must panic.
	replay := func(depth, gap, n int) (panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		b := NewCircularBuffer[int]("replay", depth)
		for t := 0; t < n; t++ {
			if t >= gap {
				b.Consume(t - gap) // consume-before-write within the cycle
			}
			b.Write(t, t)
		}
		return false
	}
	for _, Ll := range []struct{ L, l int }{{3, 1}, {5, 2}, {8, 1}, {8, 7}} {
		gap := 2*(Ll.L-Ll.l) + 1
		depth := mapping.BufferDepth(Ll.L, Ll.l)
		if replay(depth, gap, 4*gap) {
			t.Errorf("L=%d l=%d: depth %d should suffice for gap %d", Ll.L, Ll.l, depth, gap)
		}
		if depth > 1 && !replay(depth-1, gap, 4*gap) {
			t.Errorf("L=%d l=%d: depth %d should overflow for gap %d", Ll.L, Ll.l, depth-1, gap)
		}
	}
}

func TestCircularBufferLivenessPanic(t *testing.T) {
	b := NewCircularBuffer[int]("x", 1)
	b.Write(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected overwrite panic")
		}
	}()
	b.Write(1, 1)
}

func TestCircularBufferConsumeMissingPanics(t *testing.T) {
	b := NewCircularBuffer[int]("x", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing entry")
		}
	}()
	b.Consume(7)
}

func TestCircularBufferPeek(t *testing.T) {
	b := NewCircularBuffer[int]("x", 2)
	b.Write(3, 30)
	if b.Peek(3) != 30 || !panics(func() { b.Peek(4) }) {
		t.Fatal("Peek wrong")
	}
	b.Consume(3)
	if !panics(func() { b.Peek(3) }) {
		t.Fatal("consumed entry must not be live")
	}
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{L: 0, N: 4, B: 2, Training: true},
		{L: 3, N: 5, B: 2, Training: true}, // batch does not divide N
		{L: 3, N: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			Simulate(cfg)
		}()
	}
}

func TestUtilizationFigure6Schedule(t *testing.T) {
	// The paper's Figure 6 window: L=3 weighted layers, one batch of B=4.
	// The schedule touches 10 units (A1..A3, ErrL, A2E/A3E, A1D..A3D,
	// Update). Each image occupies 9 unit·cycles (3 forward + 1 output
	// error + 2 chained errors + 3 derivatives) and the batch adds one
	// update cycle: 4·9 + 1 = 37 busy unit·cycles. The run spans
	// (N/B)(2L+B+1) = 11 cycles, so utilization is 37 / (10·11).
	res := Simulate(Config{L: 3, B: 4, N: 4, Pipelined: true, Training: true})
	if res.Units != 10 {
		t.Fatalf("Units = %d, want 10", res.Units)
	}
	if res.UnitBusyCycles != 37 {
		t.Fatalf("UnitBusyCycles = %d, want 37", res.UnitBusyCycles)
	}
	want := 37.0 / 110.0
	if got := res.Utilization(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Utilization = %v, want %v", got, want)
	}
	// Utilization improves as the batch amortizes fill/drain.
	big := Simulate(Config{L: 3, B: 64, N: 64, Pipelined: true, Training: true})
	if big.Utilization() <= res.Utilization() {
		t.Fatalf("larger batch should raise utilization: %v !> %v", big.Utilization(), res.Utilization())
	}
}

func TestUtilizationZeroOnEmptyResult(t *testing.T) {
	if got := (Result{}).Utilization(); got != 0 {
		t.Fatalf("empty result utilization = %v", got)
	}
}

func TestMeanOccupancyBounded(t *testing.T) {
	res := Simulate(Config{L: 5, B: 16, N: 32, Pipelined: true, Training: true})
	for name, mean := range res.MeanOccupancy {
		if mean < 0 || mean > float64(res.PeakOccupancy[name]) {
			t.Errorf("buffer %s mean occupancy %v outside [0, peak=%d]", name, mean, res.PeakOccupancy[name])
		}
	}
	if res.MeanOccupancy["d1"] <= 0 {
		t.Fatal("d1 mean occupancy should be positive in a training run")
	}
}

func TestResultRecordPublishesGauges(t *testing.T) {
	res := Simulate(Config{L: 3, B: 4, N: 4, Pipelined: true, Training: true})
	reg := telemetry.NewRegistry()
	res.Record(reg)
	s := reg.Snapshot()
	if s.Gauges["pipeline_cycles"] != float64(res.Cycles) {
		t.Fatalf("pipeline_cycles gauge = %v, want %d", s.Gauges["pipeline_cycles"], res.Cycles)
	}
	if s.Gauges["pipeline_unit_utilization"] != res.Utilization() {
		t.Fatalf("utilization gauge = %v", s.Gauges["pipeline_unit_utilization"])
	}
	if s.Gauges[`pipeline_buffer_peak_occupancy{buffer="d1"}`] != float64(res.PeakOccupancy["d1"]) {
		t.Fatalf("peak occupancy gauge missing: %v", s.Gauges)
	}
	if _, ok := s.Gauges[`pipeline_buffer_mean_occupancy{buffer="d1"}`]; !ok {
		t.Fatalf("mean occupancy gauge missing: %v", s.Gauges)
	}
	// Recording into a nil registry is a no-op, not a crash.
	res.Record(nil)
}

func TestPipelinedBeatsNonPipelined(t *testing.T) {
	L, B, N := 6, 32, 128
	p := Simulate(Config{L: L, B: B, N: N, Pipelined: true, Training: true})
	np := Simulate(Config{L: L, B: B, N: N, Pipelined: false, Training: true})
	if p.Cycles >= np.Cycles {
		t.Fatalf("pipelined %d !< non-pipelined %d", p.Cycles, np.Cycles)
	}
	// The asymptotic advantage approaches (2L+1)/1 per image for large B.
	speedup := float64(np.Cycles) / float64(p.Cycles)
	if speedup < 5 {
		t.Fatalf("speedup %g too small for L=%d B=%d", speedup, L, B)
	}
}
