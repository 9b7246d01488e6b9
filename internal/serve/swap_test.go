package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/energy"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// machineWithSeed builds a weight-loaded tiny MLP whose weights depend on
// the seed — each seed acts as a distinct "weight version" for swap tests.
func machineWithSeed(t testing.TB, seed int64) *core.Accelerator {
	t.Helper()
	a := core.New(energy.DefaultModel())
	if err := a.TopologySet(testutil.TinyMLP("serve-mlp"), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSwapZeroDowntimeUnderLoad drives continuous concurrent load across
// three hot swaps: no request may fail, and every response must carry
// exactly one weight version whose reference outputs it matches bit for bit
// — the no-torn-response contract.
func TestSwapZeroDowntimeUnderLoad(t *testing.T) {
	const lanes = 8
	base := runtime.NumGoroutine()
	xs := inputs(t, 16)
	machines := map[uint64]*core.Accelerator{}
	refs := map[uint64][]*tensor.Tensor{}
	for v := uint64(1); v <= 4; v++ {
		machines[v] = machineWithSeed(t, 100+int64(v))
		refs[v] = serialReference(t, machines[v], xs)
	}

	s, err := New(machines[1], Config{
		Replicas: 2, MaxBatch: 8, MaxWait: 200 * time.Microsecond, QueueCap: 256,
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var seen [5]atomic.Int64 // responses per version
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; !stop.Load(); i++ {
				idx := i % len(xs)
				res, err := s.Predict(context.Background(), xs[idx])
				if err != nil {
					t.Errorf("lane %d: predict failed during swap: %v", l, err)
					return
				}
				if res.Version < 1 || res.Version > 4 {
					t.Errorf("lane %d: response version %d out of range", l, res.Version)
					return
				}
				if !tensor.Identical(res.Scores, refs[res.Version][idx]) {
					t.Errorf("lane %d: torn response: scores do not match version %d reference", l, res.Version)
					return
				}
				seen[res.Version].Add(1)
			}
		}(l)
	}

	for v := uint64(2); v <= 4; v++ {
		time.Sleep(3 * time.Millisecond)
		if err := s.Swap(machines[v], v); err != nil {
			t.Fatalf("swap to v%d: %v", v, err)
		}
		// A post-swap request is served by the new version: workers load
		// the chain at the next batch boundary.
		res, err := s.Predict(context.Background(), xs[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != v {
			t.Fatalf("after swap to v%d, got version %d", v, res.Version)
		}
		seen[res.Version].Add(1)
	}
	stop.Store(true)
	wg.Wait()

	if got := s.Version(); got != 4 {
		t.Fatalf("Version() = %d, want 4", got)
	}
	for v := 1; v <= 4; v++ {
		if seen[v].Load() == 0 {
			t.Fatalf("version %d never served a response", v)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeaks(t, base)
}

func TestSwapValidation(t *testing.T) {
	a := machineWithSeed(t, 1)
	s, err := New(a, Config{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := machineWithSeed(t, 2)

	if err := s.Swap(nil, 2); err == nil {
		t.Fatal("swap to a nil accelerator must error")
	}
	if err := s.Swap(good, 0); err == nil {
		t.Fatal("swap to version 0 must error")
	}

	// Wrong input geometry: an image network cannot replace a flat one.
	cnn := core.New(energy.DefaultModel())
	if err := cnn.TopologySet(testutil.TinyDeepCNN("serve-swap-cnn"), 1); err != nil {
		t.Fatal(err)
	}
	if err := cnn.WeightLoad(nil, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	if err := s.Swap(cnn, 2); err == nil {
		t.Fatal("swap with mismatched input size must error")
	}

	if err := s.Swap(good, 2); err != nil {
		t.Fatalf("valid swap refused: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Swap(good, 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("swap after close: err = %v, want ErrClosed", err)
	}
}

// TestOverloadPreservedMidSwap: backpressure must survive a hot swap — a
// full queue keeps shedding with ErrOverloaded while the swap lands, and
// admitted requests complete afterwards on a single consistent version each.
func TestOverloadPreservedMidSwap(t *testing.T) {
	m1, m2 := machineWithSeed(t, 11), machineWithSeed(t, 12)
	xs := inputs(t, 1)
	refs := map[uint64]*tensor.Tensor{
		1: serialReference(t, m1, xs)[0],
		2: serialReference(t, m2, xs)[0],
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	reg := telemetry.NewRegistry()
	s, err := New(m1, Config{
		Replicas: 1, MaxBatch: 1, MaxWait: 50 * time.Millisecond, QueueCap: 2, Metrics: reg,
		testHookBeforeBatch: func() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-gate
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Saturate the pipeline. With MaxBatch 1 it holds exactly QueueCap + 2
	// requests while the worker is gated: one in the worker, one in the
	// batcher's blocked hand-off and QueueCap in the queue. Fill it one
	// stage at a time, so no later dequeue can free a slot, then send the
	// surplus, which must all be shed.
	const attempts = 20
	const capacity = 2 + 2
	var wg sync.WaitGroup
	var mu sync.Mutex
	var completed []Result
	overloadedBefore := 0
	send := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Predict(context.Background(), xs[0])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed = append(completed, res)
			case errors.Is(err, ErrOverloaded):
				overloadedBefore++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	admitted := reg.Counter("serve_requests_total")
	send()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker never parked on the gate")
	}
	send()
	waitFor("the batcher to take the second request", func() bool { return admitted.Value() == 2 && len(s.queue) == 0 })
	send()
	send()
	waitFor("the queue to fill", func() bool { return len(s.queue) == cap(s.queue) })
	for i := capacity; i < attempts; i++ {
		send()
	}
	waitFor("every surplus request to be shed", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return overloadedBefore == attempts-capacity
	})

	// Swap while saturated: it must succeed without touching the queue…
	if err := s.Swap(m2, 2); err != nil {
		t.Fatalf("swap under overload: %v", err)
	}
	// …and backpressure still holds mid-swap.
	if _, err := s.Predict(context.Background(), xs[0]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("post-swap predict on full queue: err = %v, want ErrOverloaded", err)
	}
	if ra := s.RetryAfter(); ra < 1 {
		t.Fatalf("RetryAfter() = %d, want >= 1", ra)
	}

	close(gate)
	wg.Wait()
	if len(completed) != capacity {
		t.Fatalf("%d requests completed, want the %d admitted", len(completed), capacity)
	}
	for i, res := range completed {
		want, ok := refs[res.Version]
		if !ok {
			t.Fatalf("response %d carries unknown version %d", i, res.Version)
		}
		if !tensor.Identical(res.Scores, want) {
			t.Fatalf("response %d does not match its version %d reference", i, res.Version)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPHealthzStates covers the readiness satellite: ok / lagging /
// pinned report 200 with the state in the body; draining reports 503.
func TestHTTPHealthzStates(t *testing.T) {
	s, err := New(machineWithSeed(t, 21), Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler(time.Second)
	get := func() (int, HealthResponse) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var hr HealthResponse
		if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
			t.Fatalf("healthz body %q: %v", w.Body, err)
		}
		return w.Code, hr
	}

	if code, hr := get(); code != http.StatusOK || hr.Status != "ok" || hr.WeightVersion != 1 {
		t.Fatalf("fresh server healthz = %d %+v, want 200 ok v1", code, hr)
	}
	s.SetReadiness(ReadinessLagging)
	if code, hr := get(); code != http.StatusOK || hr.Status != "lagging" {
		t.Fatalf("lagging healthz = %d %+v", code, hr)
	}
	s.SetReadiness(ReadinessPinned)
	if code, hr := get(); code != http.StatusOK || hr.Status != "pinned" {
		t.Fatalf("pinned healthz = %d %+v", code, hr)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code, hr := get(); code != http.StatusServiceUnavailable || hr.Status != "draining" {
		t.Fatalf("draining healthz = %d %+v, want 503 draining", code, hr)
	}
}

// TestHTTPWeightVersionHeader: every successful prediction echoes the
// version that computed it, before and after a swap.
func TestHTTPWeightVersionHeader(t *testing.T) {
	m1, m2 := machineWithSeed(t, 31), machineWithSeed(t, 32)
	s, err := New(m1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler(time.Second)
	body := validBody(t, s)

	w := postJSON(t, h, "/predict", body)
	if w.Code != http.StatusOK {
		t.Fatalf("predict: status %d", w.Code)
	}
	if got := w.Header().Get(WeightVersionHeader); got != "1" {
		t.Fatalf("%s = %q, want 1", WeightVersionHeader, got)
	}
	if err := s.Swap(m2, 7); err != nil {
		t.Fatal(err)
	}
	w = postJSON(t, h, "/predict", body)
	if w.Code != http.StatusOK {
		t.Fatalf("post-swap predict: status %d", w.Code)
	}
	if got := w.Header().Get(WeightVersionHeader); got != "7" {
		t.Fatalf("post-swap %s = %q, want 7", WeightVersionHeader, got)
	}
}

// TestHTTPRetryAfterOnOverload covers the Retry-After satellite: a 503 shed
// by the full queue must carry a parseable positive Retry-After.
func TestHTTPRetryAfterOnOverload(t *testing.T) {
	gate := make(chan struct{})
	s, err := New(machineWithSeed(t, 41), Config{
		Replicas: 1, MaxBatch: 1, MaxWait: 50 * time.Millisecond, QueueCap: 1,
		testHookBeforeBatch: func() { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler(time.Minute)
	xs := inputs(t, 1)

	// Fill the pipeline with direct calls until the intake queue is full.
	// With the workers gated nothing drains, so the fullness is stable and
	// the synchronous HTTP post below must shed.
	var wg sync.WaitGroup
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) < cap(s.queue) {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.Predict(context.Background(), xs[0])
		}()
		time.Sleep(time.Millisecond)
	}

	w := postJSON(t, h, "/predict", validBody(t, s))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded predict: status %d, want 503", w.Code)
	}
	ra := w.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("503 without Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer: %v", ra, err)
	}

	close(gate)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
