package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
)

// spansByTrace groups the request-track events of one trace by name.
func spansByTrace(rec *flight.Recorder) map[uint64]map[string]flight.Event {
	out := map[uint64]map[string]flight.Event{}
	for _, e := range rec.Events() {
		if e.Trace == 0 {
			continue
		}
		m := out[e.Trace]
		if m == nil {
			m = map[string]flight.Event{}
			out[e.Trace] = m
		}
		m[e.Name] = e
	}
	return out
}

// TestFlightDecompositionSumsExactly: for every traced request, queue-wait +
// batch-wait + compute must equal the recorded end-to-end latency EXACTLY,
// because adjacent spans share boundary timestamps by construction, and the
// latency histogram must sum to the same end-to-end spans.
func TestFlightDecompositionSumsExactly(t *testing.T) {
	a := loadedAccel(t, nil)
	rec := flight.New(flight.Config{Capacity: 4096})
	reg := telemetry.NewRegistry()
	s, err := New(a, Config{
		Replicas: 2, MaxBatch: 4, MaxWait: time.Millisecond, QueueCap: 64,
		Metrics: reg, Flight: rec, TraceDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	xs := inputs(t, n)
	var wg sync.WaitGroup
	traces := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		//pipelayer:allow-spawn load-test clients, joined below
		go func(i int) {
			defer wg.Done()
			res, err := s.Predict(context.Background(), xs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			traces[i] = res.Trace
		}(i)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	byTrace := spansByTrace(rec)
	var e2eNs int64
	for i, tr := range traces {
		if tr == 0 {
			t.Fatalf("request %d got trace 0 with tracing on", i)
		}
		m := byTrace[tr]
		q, okQ := m["serve_queue_wait"]
		b, okB := m["serve_batch_wait"]
		c, okC := m["serve_compute"]
		e2e, okE := m["serve_request"]
		if !okQ || !okB || !okC || !okE {
			t.Fatalf("trace %d missing stages: %v", tr, m)
		}
		// Boundaries tile: queue.End == batch.Start, batch.End == compute.Start,
		// and the stage durations sum to the end-to-end span exactly.
		if q.End != b.Start || b.End != c.Start {
			t.Fatalf("trace %d: stage boundaries do not tile: q=%+v b=%+v c=%+v", tr, q, b, c)
		}
		if q.Start != e2e.Start || c.End != e2e.End {
			t.Fatalf("trace %d: stages do not bound the request: %+v vs %+v..%+v", tr, e2e, q, c)
		}
		if sum := q.Dur() + b.Dur() + c.Dur(); sum != e2e.Dur() {
			t.Fatalf("trace %d: stage sum %d != e2e %d", tr, sum, e2e.Dur())
		}
		e2eNs += e2e.Dur()
	}

	// Depth 2 reaches the replicas: layer spans and crossbar readouts appear
	// on worker tracks (>= 1).
	var layerSpans, archSpans, batchSpans int
	for _, e := range rec.Events() {
		switch e.Name {
		case "core_layer_forward":
			layerSpans++
		case "arch_readout", "arch_readout_cols":
			archSpans++
		case "serve_batch":
			batchSpans++
		}
		if (e.Name == "core_layer_forward" || e.Name == "serve_batch") && e.Track == flight.TrackRequests {
			t.Fatalf("worker span on the request track: %+v", e)
		}
	}
	if layerSpans == 0 || archSpans == 0 || batchSpans == 0 {
		t.Fatalf("depth-2 worker spans missing: layers=%d arch=%d batches=%d",
			layerSpans, archSpans, batchSpans)
	}

	// The derived attribution histograms observed every request from the
	// same boundary timestamps.
	snap := reg.Snapshot()
	for _, name := range []string{
		"serve_queue_wait_seconds", "serve_batch_wait_seconds",
		"serve_compute_seconds", "serve_request_latency_seconds",
	} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("histogram %s not registered", name)
		}
		if h.Count != n {
			t.Fatalf("%s observed %d requests, want %d", name, h.Count, n)
		}
	}
	// The latency histogram reads the same instants as the request spans,
	// so their sums agree up to float rounding.
	sum, want := snap.Histograms["serve_request_latency_seconds"].Sum, float64(e2eNs)/1e9
	if math.Abs(sum-want) > 1e-9*want {
		t.Fatalf("serve_request_latency_seconds sums %.12g s, serve_request spans %.12g s", sum, want)
	}
}

// TestFlightDisabledHasNoSideEffects: a nil recorder keeps every trace id at
// zero and emits no header material, while the four latency histograms,
// a Metrics feature read from the server's own clock, still observe the
// request.
func TestFlightDisabledHasNoSideEffects(t *testing.T) {
	a := loadedAccel(t, nil)
	reg := telemetry.NewRegistry()
	s, err := New(a, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Predict(context.Background(), inputs(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != 0 {
		t.Fatalf("trace id %d with tracing disabled", res.Trace)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"serve_queue_wait_seconds", "serve_batch_wait_seconds",
		"serve_compute_seconds", "serve_request_latency_seconds",
	} {
		if h := snap.Histograms[name]; h.Count != 1 {
			t.Fatalf("%s observed %d requests without a recorder, want 1", name, h.Count)
		}
	}
}

// TestFlightPropagatedTraceID: a caller-chosen id rides the context into the
// span attribution, and the result echoes it.
func TestFlightPropagatedTraceID(t *testing.T) {
	a := loadedAccel(t, nil)
	rec := flight.New(flight.Config{Capacity: 256})
	s, err := New(a, Config{Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	const want = uint64(424242)
	ctx := flight.WithTrace(context.Background(), want)
	res, err := s.Predict(ctx, inputs(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != want {
		t.Fatalf("result trace %d, want propagated %d", res.Trace, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m := spansByTrace(rec)[want]; len(m) == 0 {
		t.Fatalf("no spans attributed to propagated trace %d", want)
	}
}
