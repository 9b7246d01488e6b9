package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/energy"
	"pipelayer/internal/fault"
	"pipelayer/internal/parallel"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// loadedAccel builds a weight-loaded tiny MLP, optionally with faults.
func loadedAccel(t testing.TB, inj *fault.Injector) *core.Accelerator {
	t.Helper()
	a := core.New(energy.DefaultModel())
	if inj != nil {
		if err := a.SetFaults(inj); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.TopologySet(testutil.TinyMLP("serve-mlp"), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(77))); err != nil {
		t.Fatal(err)
	}
	return a
}

func inputs(t testing.TB, n int) []*tensor.Tensor {
	t.Helper()
	samples := testutil.FlatSamples(n, 9)
	xs := make([]*tensor.Tensor, n)
	for i, s := range samples {
		xs[i] = s.Input
	}
	return xs
}

// serialReference computes the expected scores for each input through the
// serial single-request path on a fresh replica of the same machine.
func serialReference(t testing.TB, a *core.Accelerator, xs []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	rep, err := a.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		out[i] = rep.Infer(x)
	}
	return out
}

// assertNoGoroutineLeaks polls until the goroutine count returns to the
// baseline — the hand-rolled goleak check. The parallel pool uses transient
// goroutines and the server joins everything in Close, so the count must
// settle.
func assertNoGoroutineLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeLoad is the load harness of the acceptance criteria: 200
// concurrent requests with mixed deadlines against a multi-replica server.
// Every request gets exactly one response; every successful response is
// bit-identical to the serial single-request path; the drain leaks nothing.
func TestServeLoad(t *testing.T) {
	const n = 200
	base := runtime.NumGoroutine()
	a := loadedAccel(t, nil)
	xs := inputs(t, n)
	want := serialReference(t, a, xs)

	reg := telemetry.NewRegistry()
	s, err := New(a, Config{Replicas: 3, MaxBatch: 16, MaxWait: 200 * time.Microsecond, QueueCap: n, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		res Result
		err error
	}
	replies := make([]reply, n)
	var answered [n]int32 // per-request response count: exactly one each
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			switch i % 3 {
			case 1: // generous deadline: must succeed
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Minute)
				defer cancel()
			case 2: // already-expired deadline: must fail fast, never hang
				var cancel context.CancelFunc
				ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
				defer cancel()
			}
			res, err := s.Predict(ctx, xs[i])
			replies[i] = reply{res: res, err: err}
			answered[i]++
		}(i)
	}
	wg.Wait()

	for i, r := range replies {
		if answered[i] != 1 {
			t.Fatalf("request %d answered %d times", i, answered[i])
		}
		if i%3 == 2 {
			if !errors.Is(r.err, context.DeadlineExceeded) {
				t.Fatalf("request %d with expired deadline: got %v, want deadline exceeded", i, r.err)
			}
			continue
		}
		if r.err != nil {
			t.Fatalf("request %d failed: %v", i, r.err)
		}
		if !tensor.Equal(r.res.Scores, want[i], 0) {
			t.Fatalf("request %d: batched scores diverged from serial reference", i)
		}
		if _, idx := want[i].Max(); idx != r.res.Class {
			t.Fatalf("request %d: class %d, want %d", i, r.res.Class, idx)
		}
	}

	// Two of every three requests enqueue; the expired third fails in
	// Predict's context precheck. Require plausible motion rather than
	// pinning scheduler-dependent exact counts.
	if got := reg.Counter("serve_requests_total").Value(); got < int64(n)/2 || got > int64(n) {
		t.Fatalf("serve_requests_total = %d, outside [%d, %d]", got, n/2, n)
	}
	if reg.Histogram("serve_batch_size", nil).Count() == 0 {
		t.Fatal("batch-size histogram never observed a batch")
	}
	if reg.Histogram("serve_request_latency_seconds", nil).Count() == 0 {
		t.Fatal("latency histogram never recorded a request")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Predict(context.Background(), xs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Predict after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
	assertNoGoroutineLeaks(t, base)
}

// TestServeDeterminism is the property test: for every worker count in
// {1, 2, 7, GOMAXPROCS} and replica count in {1, 3}, concurrent batched
// serving returns bit-identical scores to the serial single-request path.
func TestServeDeterminism(t *testing.T) {
	const n = 48
	a := loadedAccel(t, nil)
	xs := inputs(t, n)
	want := serialReference(t, a, xs)

	saved := parallel.Workers()
	defer parallel.SetWorkers(saved)

	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		for _, replicas := range []int{1, 3} {
			parallel.SetWorkers(workers)
			s, err := New(a, Config{Replicas: replicas, MaxBatch: 16, MaxWait: 100 * time.Microsecond, QueueCap: n})
			if err != nil {
				t.Fatal(err)
			}
			results := make([]Result, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := s.Predict(context.Background(), xs[i])
					if err != nil {
						t.Errorf("workers=%d replicas=%d: request %d: %v", workers, replicas, i, err)
						return
					}
					results[i] = res
				}(i)
			}
			wg.Wait()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}
			for i := range results {
				if !tensor.Equal(results[i].Scores, want[i], 0) {
					t.Fatalf("workers=%d replicas=%d: request %d diverged from serial", workers, replicas, i)
				}
			}
		}
	}
}

// TestServeWithFaultsDeterministic proves serving composes with SetFaults:
// a faulty machine serves batched results bit-identical to its own serial
// path (and distinct fault state does not race under concurrent replicas).
func TestServeWithFaultsDeterministic(t *testing.T) {
	const n = 32
	inj := fault.MustNew(fault.Config{
		Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Drift: 0.05, Spares: 4, Degrade: true,
	})
	a := loadedAccel(t, inj)
	if inj.Counters().Injected == 0 {
		t.Fatal("no faults injected")
	}
	xs := inputs(t, n)
	want := serialReference(t, a, xs)

	s, err := New(a, Config{Replicas: 2, MaxBatch: 8, MaxWait: 100 * time.Microsecond, QueueCap: n})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Predict(context.Background(), xs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if !tensor.Equal(res.Scores, want[i], 0) {
				t.Errorf("request %d: faulty serving diverged from faulty serial path", i)
			}
		}(i)
	}
	wg.Wait()
}

// TestServeOverload stalls the workers behind a gate so the queue fills
// deterministically: with total pipeline capacity bounded, surplus requests
// must fail fast with ErrOverloaded, every one of them is counted in
// serve_overloaded_total, and every admitted request must still complete
// once the gate lifts, bit-identical to the serial path.
func TestServeOverload(t *testing.T) {
	const attempts = 80
	a := loadedAccel(t, nil)
	xs := inputs(t, 8)
	want := serialReference(t, a, xs)
	gate := make(chan struct{})
	reg := telemetry.NewRegistry()
	s, err := New(a, Config{
		Replicas: 1, MaxBatch: 4, MaxWait: 50 * time.Millisecond, QueueCap: 4,
		Metrics: reg, testHookBeforeBatch: func() { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	overloaded, completed := 0, 0
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Predict(context.Background(), xs[i%len(xs)])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
				if !tensor.Equal(res.Scores, want[i%len(xs)], 0) {
					t.Errorf("request %d: admitted response diverged from the serial reference", i)
				}
			case errors.Is(err, ErrOverloaded):
				overloaded++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	// The pipeline holds at most QueueCap + 2×MaxBatch requests while gated
	// (queue, the batcher's forming batch, the worker's stalled batch), so
	// with attempts well above that the overflow must be rejected. Wait for
	// the rejections before lifting the gate.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := overloaded
		mu.Unlock()
		if got >= attempts-(4+2*4+1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d overloads after 5s", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if overloaded == 0 {
		t.Fatal("no request was rejected with ErrOverloaded")
	}
	if completed+overloaded != attempts {
		t.Fatalf("%d completed + %d overloaded != %d attempts (lost or duplicated requests)", completed, overloaded, attempts)
	}
	if completed == 0 {
		t.Fatal("every request was rejected; admitted requests must complete")
	}
	if got := reg.Counter("serve_overloaded_total").Value(); got != int64(overloaded) {
		t.Fatalf("serve_overloaded_total = %d, want %d (one per ErrOverloaded)", got, overloaded)
	}
}

// TestServeCloseDrains: requests in flight when Close begins are all
// answered before Close returns — the graceful-drain contract.
func TestServeCloseDrains(t *testing.T) {
	const n = 12
	base := runtime.NumGoroutine()
	a := loadedAccel(t, nil)
	xs := inputs(t, n)
	want := serialReference(t, a, xs)

	gate := make(chan struct{})
	s, err := New(a, Config{
		Replicas: 1, MaxBatch: 4, MaxWait: time.Millisecond, QueueCap: n,
		testHookBeforeBatch: func() { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Predict(context.Background(), xs[i])
		}(i)
	}
	// Let requests reach the queue, then begin the drain while the worker is
	// still gated; release the gate after Close has started.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d lost in drain: %v", i, errs[i])
		}
		if !tensor.Equal(results[i].Scores, want[i], 0) {
			t.Fatalf("request %d: drained result diverged", i)
		}
	}
	assertNoGoroutineLeaks(t, base)
}

// TestServeValidatesInput: nil and wrong-size inputs fail fast without
// touching the queue. A conv-front network takes a flat vector or exactly
// its (C,H,W) image; a right-sized input of any other shape is refused
// before it can reach a worker's Im2Col, on a one-shard chain and on a
// two-shard one.
func TestServeValidatesInput(t *testing.T) {
	a := loadedAccel(t, nil)
	s, err := New(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Predict(context.Background(), nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := s.Predict(context.Background(), tensor.New(3)); err == nil {
		t.Fatal("wrong-size input accepted")
	}

	cnn := core.New(energy.DefaultModel())
	if err := cnn.TopologySet(testutil.TinyDeepCNN("serve-cnn"), 1); err != nil {
		t.Fatal(err)
	}
	if err := cnn.WeightLoad(nil, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	img := testutil.ImageSamples(1, 9)[0].Input
	want := serialReference(t, cnn, []*tensor.Tensor{img})[0]
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("cnn/shards=%d", shards), func(t *testing.T) {
			s, err := New(cnn, Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, shape := range [][]int{{28, 28}, {28, 28, 1}, {1, 1, 28, 28}} {
				if _, err := s.Predict(context.Background(), img.Reshape(shape...)); err == nil {
					t.Errorf("input of shape %v accepted", shape)
				}
			}
			for _, x := range []*tensor.Tensor{img, img.Reshape(img.Size())} {
				res, err := s.Predict(context.Background(), x)
				if err != nil {
					t.Fatalf("input of shape %v: %v", x.Shape(), err)
				}
				if !tensor.Equal(res.Scores, want, 0) {
					t.Fatalf("input of shape %v: response diverged from the serial reference", x.Shape())
				}
			}
		})
	}
}

// TestServeRejectsNonFiniteInput: NaN and ±Inf are refused by Predict, the
// embedded entry point, as the HTTP decoder refuses them — on a one-shard
// chain and on a two-shard one — and never reach a worker. Served, they
// come back without an error as a wrong class or as NaN scores.
func TestServeRejectsNonFiniteInput(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var batches atomic.Int64
			s, err := New(loadedAccel(t, nil), Config{
				Shards:              shards,
				testHookBeforeBatch: func() { batches.Add(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			x := inputs(t, 1)[0]
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				bad := x.Clone()
				bad.Data()[300] = v
				if _, err := s.Predict(context.Background(), bad); err == nil {
					t.Errorf("input holding %v accepted", v)
				}
			}
			if _, err := s.Predict(context.Background(), x); err != nil {
				t.Fatal(err)
			}
			if n := batches.Load(); n != 1 {
				t.Fatalf("%d batches reached the workers, want 1 (the finite request's)", n)
			}
		})
	}
}

// TestNewServerRequiresLoadedMachine: the server refuses an unloaded
// accelerator (NewReplica's precondition surfaces at construction).
func TestNewServerRequiresLoadedMachine(t *testing.T) {
	a := core.New(energy.DefaultModel())
	if _, err := New(a, Config{}); err == nil {
		t.Fatal("New accepted an accelerator without weights")
	}
}
