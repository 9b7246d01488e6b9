package serve

// Backpressure, cancellation and swap tests for the layer-sharded chain: a
// stalled tail shard must surface as ErrOverloaded at admission — workers
// waiting on the shard's replica pool, a stalled batcher, a full queue —
// canceled in-flight requests must never wedge the chain, and a swap must
// not wait for a stalled batch.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/energy"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// loadedAccelSeed is loadedAccel with a caller-chosen weight seed: a second
// "weight version" of the same topology for swap tests.
func loadedAccelSeed(t testing.TB, seed int64) *core.Accelerator {
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

// TestShardedStalledTailSurfacesOverload: stall the tail shard and keep
// submitting. The stall propagates backwards — the worker holding the tail
// shard's only replica, the unbuffered dispatch, the batcher — until the
// intake queue fills and Predict fails fast with ErrOverloaded. After the
// stall clears, everything admitted completes bit-identically.
func TestShardedStalledTailSurfacesOverload(t *testing.T) {
	base := runtime.NumGoroutine()
	a := loadedAccel(t, nil)
	xs := inputs(t, 1)
	want := serialReference(t, a, xs)

	gate := make(chan struct{})
	var stalled atomic.Bool
	s, err := New(a, Config{
		Shards:   2, // TinyMLP: fc1 | fc2
		Replicas: 1,
		MaxBatch: 2,
		MaxWait:  100 * time.Microsecond,
		QueueCap: 4,
		testHookBeforeShard: func(k int) {
			if k == 1 && stalled.Load() {
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stalled.Store(true)

	// More submitters than the whole pipeline can hold: queue(4) + batcher +
	// worker. The surplus must be shed, not buffered.
	const submitters = 24
	errs := make([]error, submitters)
	scores := make([][]float64, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Predict(context.Background(), xs[0])
			errs[i] = err
			if err == nil {
				scores[i] = res.Scores.Data()
			}
		}(i)
	}

	// Within the deadline, a fresh Predict must fail fast with ErrOverloaded:
	// the stalled shard's backpressure has reached admission. Probes that
	// sneak into remaining queue slots get a short deadline so the poll
	// never blocks on the stalled pipeline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := s.Predict(ctx, xs[0])
		cancel()
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled tail shard never surfaced ErrOverloaded at admission (last err: %v)", err)
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	stalled.Store(false)
	wg.Wait()
	completed := 0
	for i := 0; i < submitters; i++ {
		switch {
		case errs[i] == nil:
			completed++
			for j, v := range scores[i] {
				if v != want[0].Data()[j] {
					t.Fatalf("submitter %d score %d: %v != %v", i, j, v, want[0].Data()[j])
				}
			}
		case errors.Is(errs[i], ErrOverloaded):
			// shed at admission: the correct fate for the surplus
		default:
			t.Fatalf("submitter %d: unexpected error %v", i, errs[i])
		}
	}
	if completed == 0 {
		t.Fatal("no submitter completed after the stall cleared")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeaks(t, base)
}

// TestShardedCancellationDoesNotWedge: requests whose deadlines expire while
// the chain is stalled return their context error; once the stall clears the
// chain serves new requests as if nothing happened, and Close drains clean.
func TestShardedCancellationDoesNotWedge(t *testing.T) {
	base := runtime.NumGoroutine()
	a := loadedAccel(t, nil)
	xs := inputs(t, 2)
	want := serialReference(t, a, xs)

	gate := make(chan struct{})
	var stalled atomic.Bool
	s, err := New(a, Config{
		Shards:   2,
		Replicas: 2,
		MaxBatch: 4,
		MaxWait:  100 * time.Microsecond,
		QueueCap: 16,
		testHookBeforeShard: func(k int) {
			if k == 1 && stalled.Load() {
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stalled.Store(true)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := s.Predict(ctx, xs[0])
			if err == nil || errors.Is(err, ErrOverloaded) {
				return // raced ahead of the stall or was shed — both fine
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("stalled request returned %v, want deadline exceeded", err)
			}
		}()
	}
	wg.Wait() // every caller got its context error despite the stall

	close(gate)
	stalled.Store(false)
	res, err := s.Predict(context.Background(), xs[1])
	if err != nil {
		t.Fatalf("chain wedged after cancellations: %v", err)
	}
	for j, v := range res.Scores.Data() {
		if v != want[1].Data()[j] {
			t.Fatalf("post-cancel score %d: %v != %v", j, v, want[1].Data()[j])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeaks(t, base)
}

// TestShardedSwapBasic: a hot swap onto a sharded server installs a chain
// of the new weights; the next response reports the new version and
// bit-matches the new machine's serial path.
func TestShardedSwapBasic(t *testing.T) {
	base := runtime.NumGoroutine()
	a := loadedAccel(t, nil)
	b := loadedAccelSeed(t, 123)
	xs := inputs(t, 2)
	wantA := serialReference(t, a, xs)
	wantB := serialReference(t, b, xs)

	s, err := New(a, Config{Shards: 2, MaxBatch: 4, MaxWait: 100 * time.Microsecond, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Predict(context.Background(), xs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 {
		t.Fatalf("pre-swap version %d, want 1", res.Version)
	}
	for j, v := range res.Scores.Data() {
		if v != wantA[0].Data()[j] {
			t.Fatalf("pre-swap score %d: %v != %v", j, v, wantA[0].Data()[j])
		}
	}

	if err := s.Swap(b, 2); err != nil {
		t.Fatal(err)
	}
	res, err = s.Predict(context.Background(), xs[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("post-swap version %d, want 2", res.Version)
	}
	for j, v := range res.Scores.Data() {
		if v != wantB[1].Data()[j] {
			t.Fatalf("post-swap score %d: %v != %v", j, v, wantB[1].Data()[j])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeaks(t, base)
}

// TestShardedSwapDoesNotWaitForStalledStage: a swap while a request is
// stalled inside shard 1 returns at once — nothing retires or drains the
// old chain — and the stalled request, once released, completes on the old
// chain with version 1 and the serial reference's bits.
func TestShardedSwapDoesNotWaitForStalledStage(t *testing.T) {
	base := runtime.NumGoroutine()
	a := loadedAccel(t, nil)
	b := loadedAccelSeed(t, 123)
	xs := inputs(t, 1)
	want := serialReference(t, a, xs)[0]

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var stalled atomic.Bool
	s, err := New(a, Config{
		Shards:   2,
		MaxBatch: 1,
		MaxWait:  100 * time.Microsecond,
		QueueCap: 4,
		testHookBeforeShard: func(k int) {
			if k == 1 && stalled.Load() {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stalled.Store(true)
	type reply struct {
		res Result
		err error
	}
	done := make(chan reply, 1)
	go func() {
		res, err := s.Predict(context.Background(), xs[0])
		done <- reply{res, err}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached shard 1")
	}

	swapped := make(chan error, 1)
	go func() { swapped <- s.Swap(b, 2) }()
	select {
	case err := <-swapped:
		if err != nil {
			t.Fatalf("swap: %v", err)
		}
	case <-time.After(2 * time.Second):
		stalled.Store(false)
		close(gate)
		t.Fatal("Swap still blocked after 2s")
	}
	if v := s.Version(); v != 2 {
		t.Fatalf("Version() = %d after the swap, want 2", v)
	}

	stalled.Store(false)
	close(gate)
	r := <-done
	if r.err != nil {
		t.Fatalf("stalled request: %v", r.err)
	}
	if r.res.Version != 1 {
		t.Fatalf("stalled request reports version %d, want 1", r.res.Version)
	}
	if !tensor.Equal(r.res.Scores, want, 0) {
		t.Fatal("stalled request diverged from the version 1 serial reference")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeaks(t, base)
}
