package shard

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// Config tunes a shard chain. Either Shards (automatic balancing) or Ranges
// (explicit layer assignment) selects the partition; Ranges wins when both
// are set.
type Config struct {
	// Shards is the number of contiguous layer-range shards to balance
	// automatically; 0 means one. Per-engine costs come from measured
	// trainer telemetry (core_stage_forward_seconds spans in Metrics) when
	// every stage has been timed, else from the analytic MAC counts.
	Shards int
	// Ranges assigns engine ranges explicitly; must tile the stack.
	Ranges []Range
	// Replicas is the chain's total replica budget. Every shard gets one
	// replica, and each further replica goes to the shard with the highest
	// cost per replica (the costs the partition was balanced on), ties to
	// the earliest shard. 0, or a budget below the shard count, means one
	// replica per shard. Shard k computes at most as many batches at once
	// as it has replicas — the paper's replication factor G (§3.2.3).
	Replicas int
	// Metrics, when non-nil, receives per-shard instruments:
	// serve_shard_batches_total and serve_shard_busy_seconds, each labeled
	// {shard="k"}. Busy time sums over a shard's replicas.
	Metrics *telemetry.Registry
	// Flight, when non-nil, records one serve_shard_forward span per batch
	// per shard, each replica on its own timeline track — pipeline bubbles
	// show up as gaps between spans in the Perfetto export.
	Flight *flight.Recorder
	// TrackBase is the first flight track; the replicas take consecutive
	// tracks from it, shard by shard.
	TrackBase uint64
	// TraceDepth extends tracing into the shard's replicas when >= 1
	// (core_layer_forward per layer, crossbar readouts at >= 2), exactly as
	// Replica.AttachFlight documents.
	TraceDepth int

	// BeforeStage, when non-nil, runs before each batch shard k computes,
	// once the caller holds one of the shard's replicas. It exists for
	// tests — stalling a chosen shard is the only deterministic way to
	// exercise the backpressure cascade — and must not be set in production
	// paths.
	BeforeStage func(shard int)
}

// replica is one of a shard's sub-replicas and the flight track its spans
// land on.
type replica struct {
	rep   *core.Replica
	track uint64
}

// stage is one shard: a pool holding its idle replicas. A replica is out of
// the pool exactly while a caller computes on it.
type stage struct {
	pool chan replica

	batches *telemetry.Counter
	busy    *telemetry.Span
}

// Chain runs batches through layer-range shards, each a pool of replicas.
// Forward is safe for concurrent use: every caller carries its own batch
// from shard to shard, so concurrent callers occupy different shards at the
// same instant — the Figure 6 overlap — and shard k never computes more
// batches at once than it has replicas. Outputs are bit-identical to
// running the same batch through the unsharded replica, because a shard
// chain computes the same engine sequence with the same kernels —
// partitioning only changes which replica runs which contiguous slice.
type Chain struct {
	cfg      Config // the recipe, with Ranges resolved
	replicas []int  // per-shard replica counts
	stages   []*stage
	clock    func() int64 // flight.Clock(cfg.Flight): one reading per stage boundary
}

// plan resolves a chain's shape: the ranges (explicit cfg.Ranges validated
// as-is, else cfg.Shards ranges balanced over the per-engine costs) and the
// per-shard replica counts spread over the same costs.
func plan(rep *core.Replica, cfg Config) ([]Range, []int, error) {
	costs := rep.ForwardCosts()
	if cfg.Metrics != nil {
		if measured, ok := MeasuredCosts(cfg.Metrics.Snapshot(), rep.Engines()); ok {
			costs = measured
		}
	}
	ranges := append([]Range(nil), cfg.Ranges...)
	if len(ranges) > 0 {
		if err := ValidateRanges(ranges, len(costs)); err != nil {
			return nil, nil, err
		}
	} else {
		var err error
		if ranges, err = BalancedRanges(costs, max(cfg.Shards, 1)); err != nil {
			return nil, nil, err
		}
	}
	stageCosts := make([]float64, len(ranges))
	for k, r := range ranges {
		for _, c := range costs[r.Lo:r.Hi] {
			stageCosts[k] += c
		}
	}
	return ranges, stageReplicas(stageCosts, cfg.Replicas), nil
}

// New partitions the replica into shards and gives each shard its replicas.
// The replica itself is not retained: every shard replica is a fresh
// sub-replica over the same stateless engines and programmed arrays, so the
// caller may discard rep.
func New(rep *core.Replica, cfg Config) (*Chain, error) {
	if rep == nil {
		return nil, errors.New("shard: nil replica")
	}
	ranges, replicas, err := plan(rep, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Ranges = ranges
	return build(rep, cfg, replicas)
}

// Rebuild returns a chain of c's shape — the same ranges, per-shard replica
// counts, instruments, tracks and hook — over rep's weights. A hot swap
// uses it so that telemetry accumulated since New can never re-shard the
// server.
func (c *Chain) Rebuild(rep *core.Replica) (*Chain, error) {
	if rep == nil {
		return nil, errors.New("shard: nil replica")
	}
	if err := ValidateRanges(c.cfg.Ranges, rep.Engines()); err != nil {
		return nil, err
	}
	return build(rep, c.cfg, c.replicas)
}

func build(rep *core.Replica, cfg Config, replicas []int) (*Chain, error) {
	c := &Chain{cfg: cfg, replicas: replicas, clock: flight.Clock(cfg.Flight)}
	track := cfg.TrackBase
	for k, rng := range cfg.Ranges {
		st := &stage{pool: make(chan replica, replicas[k])}
		if reg := cfg.Metrics; reg != nil {
			lbl := map[string]string{"shard": strconv.Itoa(k)}
			st.batches = reg.Counter(telemetry.Name("serve_shard_batches_total", lbl))
			st.busy = reg.Span(telemetry.Name("serve_shard_busy_seconds", lbl))
		}
		for j := 0; j < replicas[k]; j++ {
			sub, err := rep.Sub(rng.Lo, rng.Hi)
			if err != nil {
				return nil, err
			}
			if cfg.Flight.Enabled() {
				cfg.Flight.SetTrackName(track, fmt.Sprintf("shard %d replica %d: layers %d-%d", k, j, rng.Lo, rng.Hi-1))
				sub.AttachFlight(cfg.Flight, track, cfg.TraceDepth)
			}
			st.pool <- replica{rep: sub, track: track}
			track++
		}
		c.stages = append(c.stages, st)
	}
	return c, nil
}

// Forward carries one batch through the shards in order. At each shard it
// takes an idle replica from the pool, waiting while all of them are busy,
// computes the shard's layer range and returns the replica before moving
// on: a caller never holds two replicas, so it never waits while holding
// one. A stalled shard therefore backs its callers up in front of it, and
// through them the serving queue.
func (c *Chain) Forward(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	for k, st := range c.stages {
		r := <-st.pool
		if c.cfg.BeforeStage != nil {
			c.cfg.BeforeStage(k)
		}
		// One reading per boundary serves the busy span and the event alike.
		t0 := c.clock()
		ys, err := r.rep.Forward(xs)
		t1 := c.clock()
		if st.busy != nil {
			st.busy.Add(time.Duration(t1 - t0))
			st.batches.Inc()
		}
		c.cfg.Flight.RecordAt("serve_shard_forward", 0, r.track, t0, t1, int64(len(xs)))
		st.pool <- r
		if err != nil {
			return nil, err
		}
		xs = ys
	}
	return xs, nil
}

// Close is a no-op: a chain owns no goroutines and holds no batches between
// Forward calls, so there is nothing to drain. Forward stays usable.
func (c *Chain) Close() error { return nil }

// Ranges returns the resolved layer partition, one range per shard.
func (c *Chain) Ranges() []Range { return append([]Range(nil), c.cfg.Ranges...) }
