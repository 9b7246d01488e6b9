package telemetry

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// goldenRegistry builds a registry with one instrument of every kind,
// including labeled series, with fixed values.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("images_total").Add(128)
	reg.Counter(Name("core_weight_writes_total", map[string]string{"stage": "1"})).Add(7)
	reg.Counter(Name("core_weight_writes_total", map[string]string{"stage": "2"})).Add(9)
	reg.Gauge("pipeline_unit_utilization").Set(0.25)
	reg.Gauge(Name("pipeline_buffer_peak_occupancy", map[string]string{"buffer": "d1"})).Set(5)
	h := reg.Histogram("epoch_loss", []float64{0.5, 1, 2})
	h.Observe(0.5)
	h.Observe(0.75)
	h.Observe(3)
	reg.Span("forward_seconds").Add(1500 * time.Millisecond)
	reg.Span("forward_seconds").Add(500 * time.Millisecond)
	return reg
}

// goldenPrometheus is the exact expected exposition of goldenRegistry —
// deterministic ordering, cumulative buckets, one TYPE line per base name.
const goldenPrometheus = `# TYPE core_weight_writes_total counter
core_weight_writes_total{stage="1"} 7
core_weight_writes_total{stage="2"} 9
# TYPE images_total counter
images_total 128
# TYPE pipeline_buffer_peak_occupancy gauge
pipeline_buffer_peak_occupancy{buffer="d1"} 5
# TYPE pipeline_unit_utilization gauge
pipeline_unit_utilization 0.25
# TYPE epoch_loss histogram
epoch_loss_bucket{le="0.5"} 1
epoch_loss_bucket{le="1"} 2
epoch_loss_bucket{le="2"} 2
epoch_loss_bucket{le="+Inf"} 3
epoch_loss_sum 4.25
epoch_loss_count 3
# TYPE forward_seconds summary
forward_seconds_sum 2
forward_seconds_count 2
`

func TestPrometheusGolden(t *testing.T) {
	got := Reporter{Registry: goldenRegistry()}.Prometheus()
	if got != goldenPrometheus {
		t.Fatalf("Prometheus output drifted.\n--- got ---\n%s--- want ---\n%s", got, goldenPrometheus)
	}
}

func TestPrometheusRoundTripsThroughSnapshot(t *testing.T) {
	// Rendering a registry rebuilt from its own snapshot must reproduce the
	// golden output — the snapshot loses nothing the renderer needs.
	s := goldenRegistry().Snapshot()
	reg := NewRegistry()
	for name, v := range s.Counters {
		reg.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		reg.Gauge(name).Set(v)
	}
	for name, h := range s.Histograms {
		nh := reg.Histogram(name, h.Bounds)
		// Re-observe one representative value per bucket count.
		for i, c := range h.Counts {
			var v float64
			if i < len(h.Bounds) {
				v = h.Bounds[i]
			} else {
				v = h.Bounds[len(h.Bounds)-1] + 1
			}
			for j := uint64(0); j < c; j++ {
				nh.Observe(v)
			}
		}
		// Fix up the sum to the recorded one (representative values differ).
		nh.mu.Lock()
		nh.sum = h.Sum
		nh.mu.Unlock()
	}
	for name, sp := range s.Spans {
		span := reg.Span(name)
		if sp.Count > 0 {
			mean := time.Duration(sp.TotalSeconds / float64(sp.Count) * float64(time.Second))
			for i := int64(0); i < sp.Count; i++ {
				span.Add(mean)
			}
		}
	}
	got := Reporter{Registry: reg}.Prometheus()
	if got != goldenPrometheus {
		t.Fatalf("snapshot round trip drifted.\n--- got ---\n%s--- want ---\n%s", got, goldenPrometheus)
	}
}

func TestTextReportListsEverything(t *testing.T) {
	out := Reporter{Registry: goldenRegistry()}.Text()
	for _, want := range []string{
		"counters", "gauges", "histograms", "spans",
		"images_total", "pipeline_unit_utilization", "epoch_loss", "forward_seconds",
		`core_weight_writes_total{stage="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestJSONSnapshotFileRoundTrip(t *testing.T) {
	reg := goldenRegistry()
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := reg.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["images_total"] != 128 {
		t.Fatalf("counter lost in JSON: %+v", snap.Counters)
	}
	if snap.Gauges["pipeline_unit_utilization"] != 0.25 {
		t.Fatalf("gauge lost in JSON: %+v", snap.Gauges)
	}
	h := snap.Histograms["epoch_loss"]
	if h.Count != 3 || len(h.Counts) != 4 || h.Sum != 4.25 {
		t.Fatalf("histogram lost in JSON: %+v", h)
	}
	sp := snap.Spans["forward_seconds"]
	if sp.Count != 2 || sp.TotalSeconds != 2 || sp.MeanSeconds != 1 {
		t.Fatalf("span lost in JSON: %+v", sp)
	}
}

func TestSnapshotSanitizesNonFiniteGauges(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("bad").Set(math.NaN())
	if _, err := reg.JSONSnapshot(); err != nil {
		t.Fatalf("snapshot must survive non-finite gauges: %v", err)
	}
	if got := reg.Snapshot().Gauges["bad"]; got != 0 {
		t.Fatalf("non-finite gauge should snapshot as 0, got %g", got)
	}
}

func TestSnapshotCarriesCaptureTime(t *testing.T) {
	reg := NewRegistry()
	s := reg.Snapshot()
	at, err := time.Parse(time.RFC3339, s.CapturedAt)
	if err != nil {
		t.Fatalf("captured_at %q is not RFC3339: %v", s.CapturedAt, err)
	}
	if d := time.Since(at); d < -time.Minute || d > time.Minute {
		t.Fatalf("captured_at %q is not recent (off by %v)", s.CapturedAt, d)
	}
	if s.UptimeSeconds < 0 {
		t.Fatalf("uptime_seconds %g negative", s.UptimeSeconds)
	}
	later := reg.Snapshot()
	if later.UptimeSeconds < s.UptimeSeconds {
		t.Fatalf("uptime_seconds went backwards: %g then %g", s.UptimeSeconds, later.UptimeSeconds)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"captured_at"`) || !strings.Contains(string(data), `"uptime_seconds"`) {
		t.Fatalf("JSON missing capture-time fields: %s", data)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 100 observations uniform over buckets (0,10], (10,20], ..., (90,100].
	h := HistogramSnapshot{
		Bounds: []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Counts: []uint64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 0},
		Count:  100,
		Sum:    5000,
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50},
		{0.9, 90},
		{0.99, 99},
		{1, 100},
		{0, 0},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}

	// Rank in the +Inf bucket clamps to the highest finite bound.
	inf := HistogramSnapshot{
		Bounds: []float64{1, 2},
		Counts: []uint64{1, 0, 5},
		Count:  6,
	}
	if got := inf.Quantile(0.99); got != 2 {
		t.Errorf("+Inf-bucket quantile = %g, want clamp to 2", got)
	}

	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
}

func TestMetricsHandlerServesPrometheus(t *testing.T) {
	reg := goldenRegistry()
	srv := httptest.NewServer(MetricsHandler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "pipeline_unit_utilization 0.25") {
		t.Fatalf("handler output wrong:\n%s", buf[:n])
	}
}

func TestStartPprofServesMetrics(t *testing.T) {
	reg := goldenRegistry()
	addr, shutdown, err := StartPprof("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "images_total 128") {
		t.Fatalf("pprof listener /metrics wrong:\n%s", buf[:n])
	}
}

// TestSnapshotHistogramNotTorn snapshots a histogram while two goroutines
// observe it. Every snapshot must be one consistent state: its buckets sum to
// its count, so the Prometheus +Inf bucket equals _count, and its sum (every
// observation is 1) equals its count.
func TestSnapshotHistogramNotTorn(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{0.5, 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(1)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2000; i++ {
		s := reg.Snapshot().Histograms["lat"]
		var buckets uint64
		for _, c := range s.Counts {
			buckets += c
		}
		if buckets != s.Count || s.Sum != float64(s.Count) {
			t.Fatalf("snapshot %d is torn: buckets sum to %d, count %d, sum %g", i, buckets, s.Count, s.Sum)
		}
	}
}

// TestSnapshotSpanNotTorn snapshots a span while two goroutines add 1 s
// timings to it. Every snapshot must be one consistent state: its total in
// seconds equals its count, so a /metrics _sum and _count agree.
func TestSnapshotSpanNotTorn(t *testing.T) {
	reg := NewRegistry()
	sp := reg.Span("step")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sp.Add(time.Second)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2000; i++ {
		s := reg.Snapshot().Spans["step"]
		if s.TotalSeconds != float64(s.Count) {
			t.Fatalf("snapshot %d is torn: total %g s, count %d", i, s.TotalSeconds, s.Count)
		}
	}
}
