package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	// 32 goroutines × 1000 increments through the registry's get-or-create
	// path; run under -race this also exercises the lookup fast path.
	reg := NewRegistry()
	const workers, perWorker = 32, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("shared_total").Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared_total").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter must stay monotonic, got %d", c.Value())
	}
}

func TestGaugeSetAddConcurrent(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("occupancy")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 1.5+16*500 {
		t.Fatalf("gauge = %g, want %g", got, 1.5+16*500.0)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	// Prometheus `le` semantics: a value equal to a bound lands in that
	// bound's bucket; anything above the last bound lands in +Inf.
	bounds := []float64{0.1, 1, 10}
	cases := []struct {
		name   string
		value  float64
		bucket int // index into counts (3 = +Inf)
	}{
		{"below-first", 0.05, 0},
		{"exactly-first-edge", 0.1, 0},
		{"just-above-first-edge", math.Nextafter(0.1, 1), 1},
		{"mid", 0.5, 1},
		{"exactly-middle-edge", 1, 1},
		{"between", 5, 2},
		{"exactly-last-edge", 10, 2},
		{"just-above-last-edge", math.Nextafter(10, 11), 3},
		{"far-overflow", 1e9, 3},
		{"negative", -3, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(bounds)
			h.Observe(tc.value)
			s := h.snapshot()
			for i, c := range s.Counts {
				want := uint64(0)
				if i == tc.bucket {
					want = 1
				}
				if c != want {
					t.Fatalf("Observe(%g): counts=%v, want value in bucket %d", tc.value, s.Counts, tc.bucket)
				}
			}
			if s.Count != 1 || s.Sum != tc.value {
				t.Fatalf("Observe(%g): count=%d sum=%g", tc.value, s.Count, s.Sum)
			}
		})
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := reg.Histogram("lat", []float64{1, 2, 3})
			for i := 0; i < 300; i++ {
				h.Observe(float64(w % 4))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Histogram("lat", nil).Count(); got != 8*300 {
		t.Fatalf("histogram count = %d, want %d", got, 8*300)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{
		{2, 1},
		{1, 1},
		{math.NaN()},
		{math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v should panic", bounds)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

func TestSpanAccumulates(t *testing.T) {
	reg := NewRegistry()
	s := reg.Span("work_seconds")
	s.Add(30 * time.Millisecond)
	s.Add(10 * time.Millisecond)
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Total() != 40*time.Millisecond {
		t.Fatalf("total = %v", s.Total())
	}
	if s.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestSpanConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := reg.Span("hot")
			for i := 0; i < 200; i++ {
				s.Add(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := reg.Span("hot").Count(); got != 16*200 {
		t.Fatalf("span count = %d", got)
	}
}

func TestNameDeterministicLabelOrder(t *testing.T) {
	a := Name("m", map[string]string{"b": "2", "a": "1"})
	if a != `m{a="1",b="2"}` {
		t.Fatalf("Name = %q", a)
	}
	if Name("m", nil) != "m" {
		t.Fatal("Name without labels must be the base")
	}
	base, labels := splitName(a)
	if base != "m" || labels != `{a="1",b="2"}` {
		t.Fatalf("splitName = %q %q", base, labels)
	}
}

func TestRegistryInstrumentIdentity(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Fatal("same name must return the same counter")
	}
	if reg.Gauge("x") != reg.Gauge("x") {
		t.Fatal("same name must return the same gauge")
	}
	if reg.Span("x") != reg.Span("x") {
		t.Fatal("same name must return the same span")
	}
	h := reg.Histogram("x", []float64{1})
	if reg.Histogram("x", []float64{99}) != h {
		t.Fatal("same name must return the same histogram (first bounds win)")
	}
	if got := h.Bounds(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("bounds overwritten: %v", got)
	}
}

func TestEpochRecorder(t *testing.T) {
	reg := NewRegistry()
	rec := &EpochRecorder{Registry: reg}
	rec.ObserveEpoch(1, 2.3, 0.1, 100)
	rec.ObserveEpoch(2, 0.4, 0.8, 120)
	s := reg.Snapshot()
	if s.Gauges["train_epochs"] != 2 {
		t.Fatalf("train_epochs = %g", s.Gauges["train_epochs"])
	}
	if s.Gauges[`train_epoch_loss{epoch="1"}`] != 2.3 || s.Gauges[`train_epoch_loss{epoch="2"}`] != 0.4 {
		t.Fatalf("per-epoch loss gauges wrong: %v", s.Gauges)
	}
	if s.Gauges[`train_epoch_accuracy{epoch="2"}`] != 0.8 {
		t.Fatalf("accuracy gauge wrong: %v", s.Gauges)
	}
	if s.Histograms["train_epoch_loss_hist"].Count != 2 {
		t.Fatal("loss histogram not fed")
	}
	// A nil recorder or registry must be a no-op, not a crash.
	var nilRec *EpochRecorder
	nilRec.ObserveEpoch(1, 0, 0, 0)
	(&EpochRecorder{}).ObserveEpoch(1, 0, 0, 0)
}
