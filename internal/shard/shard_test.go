package shard

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/energy"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// cnnReplica builds a weight-loaded TinyDeepCNN (5 engines: conv, pool,
// conv, pool, fc) and returns a fresh inference replica of it.
func cnnReplica(t testing.TB) *core.Replica {
	t.Helper()
	a := core.New(energy.DefaultModel())
	if err := a.TopologySet(testutil.TinyDeepCNN("shard-cnn"), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(41))); err != nil {
		t.Fatal(err)
	}
	rep, err := a.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func imageInputs(t testing.TB, n int) []*tensor.Tensor {
	t.Helper()
	samples := testutil.ImageSamples(n, 17)
	xs := make([]*tensor.Tensor, n)
	for i, s := range samples {
		xs[i] = s.Input
	}
	return xs
}

func sameBits(t *testing.T, got, want *tensor.Tensor, what string) {
	t.Helper()
	if !tensor.Identical(got, want) {
		t.Fatalf("%s: %v, want %v (bit-identity broken)", what, got, want)
	}
}

// TestChainBitIdentity: every shard count over the 5-engine CNN produces
// bit-identical outputs to the unsharded replica, for multi-sample batches
// and the single-sample fast path alike.
func TestChainBitIdentity(t *testing.T) {
	rep := cnnReplica(t)
	xs := imageInputs(t, 6)
	want := rep.InferBatch(append([]*tensor.Tensor(nil), xs...))
	single := rep.Infer(xs[0])
	for shards := 1; shards <= rep.Engines(); shards++ {
		c, err := New(rep, Config{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got, err := c.Forward(append([]*tensor.Tensor(nil), xs...))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := range got {
			sameBits(t, got[i], want[i], "batched")
		}
		one, err := c.Forward([]*tensor.Tensor{xs[0]})
		if err != nil {
			t.Fatalf("shards=%d single: %v", shards, err)
		}
		sameBits(t, one[0], single, "single")
		if err := c.Close(); err != nil {
			t.Fatalf("shards=%d close: %v", shards, err)
		}
	}
}

// TestChainExplicitRangesAndTelemetry: explicit uneven ranges work, per-shard
// instruments appear labeled, and Ranges reports the partition used.
func TestChainExplicitRangesAndTelemetry(t *testing.T) {
	rep := cnnReplica(t)
	xs := imageInputs(t, 4)
	want := rep.InferBatch(append([]*tensor.Tensor(nil), xs...))
	reg := telemetry.NewRegistry()
	ranges := []Range{{0, 1}, {1, 4}, {4, 5}}
	c, err := New(rep, Config{Ranges: ranges, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Forward(append([]*tensor.Tensor(nil), xs...))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		sameBits(t, got[i], want[i], "explicit ranges")
	}
	if got := c.Ranges(); len(got) != 3 || got[1] != ranges[1] {
		t.Fatalf("Ranges() = %v, want %v", got, ranges)
	}
	snap := reg.Snapshot()
	for k := 0; k < 3; k++ {
		name := telemetry.Name("serve_shard_batches_total", map[string]string{"shard": []string{"0", "1", "2"}[k]})
		if snap.Counters[name] != 1 {
			t.Errorf("%s = %d, want 1", name, snap.Counters[name])
		}
	}
}

// TestChainBusySpansMatchFlightEvents: each shard stage's start and end are
// read once and serve both its busy span and its serve_shard_forward event,
// so every shard's serve_shard_busy_seconds total equals the summed events
// on its replicas' tracks, in count and in nanoseconds.
func TestChainBusySpansMatchFlightEvents(t *testing.T) {
	rep := cnnReplica(t)
	xs := imageInputs(t, 2)
	reg := telemetry.NewRegistry()
	rec := flight.New(flight.Config{Capacity: 1 << 10})
	const trackBase = 10
	c, err := New(rep, Config{Shards: 2, Replicas: 3, Metrics: reg, Flight: rec, TrackBase: trackBase})
	if err != nil {
		t.Fatal(err)
	}
	const batches, callers = 60, 2
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches/callers; i++ {
				if _, err := c.Forward(append([]*tensor.Tensor(nil), xs...)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", rec.Dropped())
	}
	// Replica tracks run consecutively from TrackBase, shard by shard.
	shardOf := map[uint64]int{}
	track := uint64(trackBase)
	for k, n := range c.replicas {
		for j := 0; j < n; j++ {
			shardOf[track] = k
			track++
		}
	}
	n := make([]int64, len(c.replicas))
	ns := make([]int64, len(c.replicas))
	for _, e := range rec.Events() {
		if e.Name != "serve_shard_forward" {
			continue
		}
		k, ok := shardOf[e.Track]
		if !ok {
			t.Fatalf("serve_shard_forward on track %d, which no replica owns", e.Track)
		}
		n[k]++
		ns[k] += e.Dur()
	}
	for k := range c.replicas {
		busy := reg.Span(telemetry.Name("serve_shard_busy_seconds", map[string]string{"shard": strconv.Itoa(k)}))
		if n[k] != batches {
			t.Errorf("shard %d: %d events, want %d", k, n[k], batches)
		}
		if busy.Count() != n[k] || int64(busy.Total()) != ns[k] {
			t.Errorf("shard %d: busy span %d timings, %d ns; events %d, %d ns", k, busy.Count(), int64(busy.Total()), n[k], ns[k])
		}
	}
}

// TestChainAutoBalancePrefersMeasuredTelemetry: with complete per-stage
// forward spans in the registry the planner balances on them instead of the
// analytic costs.
func TestChainAutoBalancePrefersMeasuredTelemetry(t *testing.T) {
	rep := cnnReplica(t)
	reg := telemetry.NewRegistry()
	// Fake a profile where the last engine dominates: the 2-shard split must
	// isolate it.
	for i := 1; i <= rep.Engines(); i++ {
		ms := time.Millisecond
		if i == rep.Engines() {
			ms = 100 * time.Millisecond
		}
		reg.Span(telemetry.Name("core_stage_forward_seconds", map[string]string{"stage": []string{"1", "2", "3", "4", "5"}[i-1]})).Add(ms)
	}
	c, err := New(rep, Config{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ranges := c.Ranges()
	want := []Range{{0, 4}, {4, 5}}
	if ranges[0] != want[0] || ranges[1] != want[1] {
		t.Fatalf("measured-cost split = %v, want %v", ranges, want)
	}
}

// TestChainBoundedBackpressure: with the tail shard of a one-replica-per-
// shard chain stalled, only the batch holding its replica gets inside — the
// hook for shard 1 runs once while the gate is shut, every other caller
// waits in front of the shard — and once the gate opens every caller
// completes bit-identically.
func TestChainBoundedBackpressure(t *testing.T) {
	rep := cnnReplica(t)
	xs := imageInputs(t, 1)
	want := rep.Infer(xs[0])
	gate := make(chan struct{})
	var entered atomic.Int32
	reg := telemetry.NewRegistry()
	c, err := New(rep, Config{
		Shards:  2,
		Metrics: reg,
		BeforeStage: func(k int) {
			if k == 1 {
				entered.Add(1)
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const callers = 4
	outs := make([][]*tensor.Tensor, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c.Forward([]*tensor.Tensor{xs[0]})
		}(i)
	}
	// Every caller gets through shard 0, whose replica the stall does not
	// hold; then all but one wait for shard 1's replica.
	head := reg.Counter(telemetry.Name("serve_shard_batches_total", map[string]string{"shard": "0"}))
	deadline := time.Now().Add(5 * time.Second)
	for head.Value() < callers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d batches left shard 0", head.Value(), callers)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := entered.Load(); n != 1 {
		t.Fatalf("shard 1 entered %d times with its only replica stalled, want 1", n)
	}

	close(gate)
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		sameBits(t, outs[i][0], want, "released")
	}
	if n := entered.Load(); n != callers {
		t.Fatalf("shard 1 ran %d batches, want %d", n, callers)
	}
}

func TestChainEmptyBatch(t *testing.T) {
	rep := cnnReplica(t)
	c, err := New(rep, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ys, err := c.Forward(nil)
	if err != nil || ys != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", ys, err)
	}
}
