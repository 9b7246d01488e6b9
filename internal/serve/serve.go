// Package serve is the embeddable inference server for a trained PipeLayer
// machine: the software analogue of the paper's throughput pipelining. Many
// concurrent single-sample requests coalesce into the large effective batches
// the batched crossbar readout (arch.MatVecCols) is fastest at, while every
// response stays bit-identical to the serial single-request path — the
// determinism contract the rest of the repo pins.
//
// Architecture: Predict enqueues onto a bounded queue (backpressure surfaces
// as ErrOverloaded, never blocking the caller); a single batcher goroutine
// drains the queue and flushes a batch when it reaches MaxBatch or the oldest
// request has waited MaxWait; replica workers — each owning a core.Replica
// cloned from the trained machine — take whole batches from an unbuffered
// dispatch channel and run one multi-column readout per weighted stage.
// Close stops intake, flushes everything in flight, and joins every
// goroutine: a clean drain, by construction.
package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/shard"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// Typed failures a caller can branch on.
var (
	// ErrOverloaded: the bounded queue is full; shed load or retry later.
	ErrOverloaded = errors.New("serve: queue full")
	// ErrClosed: the server is draining or closed.
	ErrClosed = errors.New("serve: server closed")
)

// Config tunes the batching scheduler. The zero value serves with one
// replica, batches of up to 16, a 2 ms batching window, and a 64-deep queue.
type Config struct {
	// Replicas is the number of inference clones serving batches
	// concurrently. Each replica shares the trained machine's programmed
	// arrays but owns its activation state. In sharded mode (see Shards)
	// there is a single shared shard chain instead of per-worker replicas;
	// Replicas then sets the number of workers — the number of batches kept
	// in flight, i.e. the pipeline fill — and defaults to Shards.
	Replicas int
	// Shards, when >= 2, serves through a pipelined chain of contiguous
	// layer-range shards (internal/shard) instead of whole-model replicas:
	// shard k computes batch i+1 while shard k+1 computes batch i — the
	// paper's Figure 6 inter-layer pipeline on the serving path. The layer
	// partition is balanced automatically by per-layer compute cost
	// (measured trainer telemetry in Metrics when complete, analytic MAC
	// counts otherwise) and stays fixed across hot swaps. Outputs remain
	// bit-identical to the unsharded path.
	Shards int
	// ShardRanges assigns the layer partition explicitly (must tile the
	// engine stack); non-empty ShardRanges enables sharded mode and
	// overrides Shards.
	ShardRanges []shard.Range
	// ShardDepth bounds each shard's inbox (default 1): how many batches a
	// shard may hold waiting beyond the one it is computing. Small values
	// keep backpressure tight — a stalled shard stalls its upstream within
	// one batch and the stall propagates to ErrOverloaded at admission.
	ShardDepth int
	// MaxBatch is the largest coalesced batch; a full batch flushes
	// immediately.
	MaxBatch int
	// MaxWait bounds how long the oldest queued request waits for its batch
	// to fill before the batcher flushes a partial batch.
	MaxWait time.Duration
	// QueueCap bounds the intake queue; a full queue fails fast with
	// ErrOverloaded.
	QueueCap int
	// Metrics, when non-nil, receives serve_* instruments: queue depth
	// gauge, batch-size histogram, request latency span + histogram, and
	// outcome counters.
	Metrics *telemetry.Registry

	// Flight, when non-nil, records every request's per-stage decomposition:
	// serve_queue_wait (enqueue → batcher dequeue), serve_batch_wait
	// (dequeue → worker batch start) and serve_compute (batch start →
	// result) spans on the request track, plus a serve_batch span per
	// executed batch on the owning replica's track. Adjacent spans share
	// their boundary timestamps, so the three stages sum to the recorded
	// end-to-end latency exactly. The serve_queue_wait_seconds /
	// serve_batch_wait_seconds / serve_compute_seconds histograms in Metrics
	// are observed from the same boundary instants — aggregate metrics and
	// traces can never disagree.
	Flight *flight.Recorder

	// TraceDepth selects how deep the tracing reaches when Flight is set:
	// 0 records request-stage spans only, 1 adds a core_layer_forward span
	// per layer per batch, 2 additionally traces each crossbar readout
	// (arch_readout_cols) on the replica's track.
	TraceDepth int

	// InitialVersion is the weight version the initial replicas serve as
	// (defaults to 1). Every response is attributed to exactly one version:
	// the one its batch's worker held when the batch started computing. Hot
	// swaps install later versions via Swap.
	InitialVersion uint64

	// testHookBeforeBatch, settable only from this package's tests, runs in
	// each worker before it processes a batch — letting a test stall the
	// pipeline deterministically to fill the queue.
	testHookBeforeBatch func()

	// testHookBeforeShard, settable only from this package's tests, is
	// threaded into the shard chain's BeforeStage hook — letting a test
	// stall a chosen shard and watch the backpressure cascade reach
	// admission.
	testHookBeforeShard func(int)
}

// Sharded reports whether the config selects the layer-sharded backend.
func (c Config) Sharded() bool { return c.Shards >= 2 || len(c.ShardRanges) >= 1 }

// WithDefaults returns the config with every zero field replaced by its
// documented default (one replica, batches of 16, 2 ms window, 64-deep
// queue). New applies it automatically; external callers — the scenario
// benchmark runner in particular — use it to record the *effective*
// configuration in report provenance instead of zeros.
func (c Config) WithDefaults() Config {
	if len(c.ShardRanges) > 0 {
		c.Shards = len(c.ShardRanges)
	}
	if c.Sharded() && c.Replicas <= 0 {
		// A pipeline only overlaps when several batches are in flight; one
		// worker per shard is the natural fill.
		c.Replicas = c.Shards
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.InitialVersion == 0 {
		c.InitialVersion = 1
	}
	return c
}

// Readiness is the health state /healthz reports while the server accepts
// traffic. The online supervisor drives transitions: Lagging after an eval
// regression rolled a candidate back, Pinned once rollover is disabled
// (repeated regressions or a trainer fault) and serving is frozen on the
// last good version. Draining is implied by Close and not settable.
type Readiness int32

const (
	ReadinessOK Readiness = iota
	ReadinessLagging
	ReadinessPinned
)

// String returns the wire form used by /healthz.
func (r Readiness) String() string {
	switch r {
	case ReadinessLagging:
		return "lagging"
	case ReadinessPinned:
		return "pinned"
	default:
		return "ok"
	}
}

// Result is one completed prediction: the class scores and their argmax.
// Trace is the flight-recorder trace id the request's spans are attributed
// to (0 when tracing is off), for correlating a response with its span tree.
// Version is the weight version that computed the scores — exactly one per
// response, taken from the worker's replica snapshot at batch start, so a
// response can never mix weights from two versions.
type Result struct {
	Scores  *tensor.Tensor
	Class   int
	Trace   uint64
	Version uint64
}

// Backend computes whole batches for the workers. Two implementations:
// *core.Replica (whole-model, one private backend per worker) and
// *shard.Chain (layer-sharded pipeline, one backend shared by all workers —
// safe because the chain is concurrent by design and pipelines the workers'
// batches across its shards). Both produce bit-identical outputs to the
// serial single-request path.
type Backend interface {
	Spec() networks.Spec
	Forward(xs []*tensor.Tensor) ([]*tensor.Tensor, error)
}

// backendState pairs a backend with the weight version it was built from.
// Workers load their slot's pointer once per batch, so a swap lands between
// batches, never inside one.
type backendState struct {
	be      Backend
	version uint64
}

type request struct {
	ctx      context.Context
	x        *tensor.Tensor
	enqueued time.Time
	done     chan outcome // buffered(1): a worker send never blocks on an abandoned caller

	// Flight attribution: the trace id and the stage-boundary timestamps
	// (recorder-clock ns). Each boundary is written by exactly one goroutine
	// before the request crosses a channel to the next, so later stages read
	// them race-free. tEnq → tDeq is queue wait, tDeq → worker batch start
	// is batch-formation wait, batch start → finish is compute.
	trace uint64
	tEnq  int64
	tDeq  int64
}

type outcome struct {
	res Result
	err error
}

// Server batches concurrent Predict calls across inference replicas. Create
// one with New; it serves until Close.
type Server struct {
	cfg   Config
	in    int           // expected input size (elements)
	spec  networks.Spec // served geometry; Swap requires an identical spec
	queue chan *request

	// slots holds one atomically swappable backend+version per worker (in
	// sharded mode every slot points at the same shared chain state);
	// version mirrors the most recently installed version for reporting.
	// readiness is the /healthz state (Readiness values).
	slots     []atomic.Pointer[backendState]
	version   atomic.Uint64
	readiness atomic.Int32

	// chainCfg is the pinned shard-chain construction recipe (resolved
	// ranges included) so every hot swap rebuilds an identically
	// partitioned chain; zero when unsharded.
	chainCfg shard.Config
	sharded  bool

	mu     sync.RWMutex // guards closed against the queue close in Close
	closed bool

	wg sync.WaitGroup

	beforeBatch func() // Config.testHookBeforeBatch, fixed at construction

	flight *flight.Recorder

	queueDepth  *telemetry.Gauge
	batchSize   *telemetry.Histogram
	latency     *telemetry.Span
	latencyHist *telemetry.Histogram
	queueWait   *telemetry.Histogram
	batchWait   *telemetry.Histogram
	computeTime *telemetry.Histogram
	requests    *telemetry.Counter
	overloads   *telemetry.Counter
	canceled    *telemetry.Counter
	batches     *telemetry.Counter
	swaps       *telemetry.Counter
	weightVer   *telemetry.Gauge
}

// latencyBuckets spans 100 µs – 2.5 s: the sub-millisecond single-sample path
// through saturated multi-batch queueing, for every serve_*_seconds histogram
// so stage quantiles compare bucket-for-bucket.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// New builds the serving backend from the trained accelerator and starts the
// scheduler. Unsharded, each worker owns a whole-model replica; with
// cfg.Shards >= 2 (or explicit ShardRanges) one layer-sharded chain is built
// and shared by every worker. The accelerator must have weights loaded
// (NewReplica's requirement); it is not otherwise touched, so training-side
// state stays where it was.
func New(a *core.Accelerator, cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	var (
		replicas []*core.Replica
		chain    *shard.Chain
		chainCfg shard.Config
	)
	if cfg.Sharded() {
		rep, err := a.NewReplica()
		if err != nil {
			return nil, err
		}
		chainCfg = shard.Config{
			Shards:      cfg.Shards,
			Ranges:      cfg.ShardRanges,
			Depth:       cfg.ShardDepth,
			Metrics:     cfg.Metrics,
			Flight:      cfg.Flight,
			TrackBase:   1, // track 0 is the request lane
			TraceDepth:  cfg.TraceDepth,
			BeforeStage: cfg.testHookBeforeShard,
		}
		// Resolve the partition once and pin it: hot swaps rebuild the
		// chain for new weights, and the shard boundaries must not drift
		// with whatever telemetry has accumulated by then.
		ranges, err := shard.ResolveRanges(rep, chainCfg)
		if err != nil {
			return nil, err
		}
		chainCfg.Ranges = ranges
		chainCfg.Shards = len(ranges)
		if chain, err = shard.New(rep, chainCfg); err != nil {
			return nil, err
		}
	} else {
		replicas = make([]*core.Replica, cfg.Replicas)
		for i := range replicas {
			r, err := a.NewReplica()
			if err != nil {
				return nil, err
			}
			replicas[i] = r
		}
	}
	spec := a.Spec()
	s := &Server{
		cfg:         cfg,
		in:          spec.InC * spec.InH * spec.InW,
		spec:        spec,
		queue:       make(chan *request, cfg.QueueCap),
		beforeBatch: cfg.testHookBeforeBatch,
		flight:      cfg.Flight,
		chainCfg:    chainCfg,
		sharded:     chain != nil,
	}
	if reg := cfg.Metrics; reg != nil {
		s.queueDepth = reg.Gauge("serve_queue_depth")
		s.batchSize = reg.Histogram("serve_batch_size", []float64{1, 2, 4, 8, 16, 32, 64})
		s.latency = reg.Span("serve_request_seconds")
		s.latencyHist = reg.Histogram("serve_request_latency_seconds", latencyBuckets)
		s.requests = reg.Counter("serve_requests_total")
		s.overloads = reg.Counter("serve_overloaded_total")
		s.canceled = reg.Counter("serve_canceled_total")
		s.batches = reg.Counter("serve_batches_total")
		s.swaps = reg.Counter("serve_swaps_total")
		s.weightVer = reg.Gauge("serve_weight_version")
		if s.flight.Enabled() {
			// Attribution histograms are derived from the flight recorder's
			// boundary timestamps (see finish), so they only exist when the
			// recorder does — and can never disagree with the trace.
			s.queueWait = reg.Histogram("serve_queue_wait_seconds", latencyBuckets)
			s.batchWait = reg.Histogram("serve_batch_wait_seconds", latencyBuckets)
			s.computeTime = reg.Histogram("serve_compute_seconds", latencyBuckets)
		}
	}
	if s.flight.Enabled() {
		s.flight.SetTrackName(flight.TrackRequests, "requests")
	}
	s.version.Store(cfg.InitialVersion)
	s.gauge(s.weightVer, float64(cfg.InitialVersion))

	dispatch := make(chan []*request) // unbuffered: the batcher feels worker backpressure
	s.wg.Add(1)
	go s.batcher(dispatch)
	s.slots = make([]atomic.Pointer[backendState], cfg.Replicas)
	if s.sharded {
		// One shared chain state behind every slot. The chain owns tracks
		// 1..S; worker i records its serve_batch spans on track S+1+i so
		// per-shard and per-worker timelines stay distinct in the export.
		st := &backendState{be: chain, version: cfg.InitialVersion}
		for i := range s.slots {
			track := uint64(chain.Shards()) + uint64(i) + 1
			if s.flight.Enabled() {
				s.flight.SetTrackName(track, fmt.Sprintf("worker %d", i))
			}
			s.slots[i].Store(st)
			s.wg.Add(1)
			go s.worker(i, track, dispatch)
		}
		return s, nil
	}
	for i, r := range replicas {
		// Track 0 is the request lane; replica i owns track i+1.
		track := uint64(i) + 1
		if s.flight.Enabled() {
			s.flight.SetTrackName(track, fmt.Sprintf("replica %d", i))
			r.AttachFlight(s.flight, track, cfg.TraceDepth)
		}
		s.slots[i].Store(&backendState{be: r, version: cfg.InitialVersion})
		s.wg.Add(1)
		go s.worker(i, track, dispatch)
	}
	return s, nil
}

// Swap atomically installs a new replica set as the given weight version:
// each worker slot's pointer is replaced, so batches already computing
// finish on their old replica (and report its version) while every
// subsequent batch runs the new one. No request is dropped, delayed, or
// torn — the queue and batcher are untouched. The replicas must serve the
// same network spec and match the slot count (one per worker); they should be
// freshly built from a weight snapshot (core.NewFromSnapshot + ReplicaSet),
// not clones of a machine still training.
func (s *Server) Swap(replicas []*core.Replica, version uint64) error {
	if len(replicas) != len(s.slots) {
		return fmt.Errorf("serve: swap with %d replicas, server has %d worker slots", len(replicas), len(s.slots))
	}
	if version == 0 {
		return errors.New("serve: swap to version 0")
	}
	for i, r := range replicas {
		if r == nil {
			return fmt.Errorf("serve: swap replica %d is nil", i)
		}
		if !reflect.DeepEqual(r.Spec(), s.spec) {
			return fmt.Errorf("serve: swap replica %d serves spec %q, server serves %q — the topology must not change across versions",
				i, r.Spec().Name, s.spec.Name)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.sharded {
		// Rebuild the chain from the first replica using the pinned
		// partition, point every slot at it, then retire the old chain.
		// Retiring drains: batches already inside the old chain finish and
		// report their old version; a worker that loaded the old state just
		// before the swap gets ErrClosed from the retired chain and retries
		// on the freshly loaded slot. No request is dropped or torn.
		chain, err := shard.New(replicas[0], s.chainCfg)
		if err != nil {
			return err
		}
		old := s.slots[0].Load()
		st := &backendState{be: chain, version: version}
		for i := range s.slots {
			s.slots[i].Store(st)
		}
		s.version.Store(version)
		s.gauge(s.weightVer, float64(version))
		s.count(s.swaps)
		if c, ok := old.be.(*shard.Chain); ok {
			//pipelayer:allow-errdrop retiring the replaced chain after the swap committed; Close on a quiesced chain only errors on double-close, and failing the successful Swap for it would un-publish weights already serving
			c.Close()
		}
		return nil
	}
	for i, r := range replicas {
		track := uint64(i) + 1
		if s.flight.Enabled() {
			r.AttachFlight(s.flight, track, s.cfg.TraceDepth)
		}
		s.slots[i].Store(&backendState{be: r, version: version})
	}
	s.version.Store(version)
	s.gauge(s.weightVer, float64(version))
	s.count(s.swaps)
	return nil
}

// Version returns the most recently installed weight version.
func (s *Server) Version() uint64 { return s.version.Load() }

// SetReadiness publishes the health state /healthz reports; the online
// supervisor calls this on Lagging/Pinned transitions.
func (s *Server) SetReadiness(r Readiness) { s.readiness.Store(int32(r)) }

// Readiness returns the current published health state.
func (s *Server) Readiness() Readiness { return Readiness(s.readiness.Load()) }

// Predict submits one input and waits for its result, the request context's
// cancellation, or its deadline — whichever comes first. A nil, mis-sized or
// non-finite input is an error before anything is queued. A canceled request
// already in the queue is skipped by the workers; its slot costs nothing but
// queue depth until its batch flushes.
func (s *Server) Predict(ctx context.Context, x *tensor.Tensor) (Result, error) {
	if x == nil {
		return Result{}, errors.New("serve: nil input")
	}
	if x.Size() != s.in {
		return Result{}, fmt.Errorf("serve: input has %d elements, want %d", x.Size(), s.in)
	}
	if err := checkFinite(x.Data()); err != nil {
		return Result{}, err
	}
	if x.Rank() == 1 && len(s.spec.Layers) > 0 && s.spec.Layers[0].Kind != mapping.KindFC {
		// HTTP clients send flat vectors; a conv front layer needs the
		// (C,H,W) image. Reshape is a view — no copy.
		x = x.Reshape(s.spec.InC, s.spec.InH, s.spec.InW)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Trace attribution: reuse an id propagated via the context (the HTTP
	// handler's X-Flight-Trace) or allocate a fresh one. With tracing off
	// both are 0 and every span call below is a nil no-op.
	ctx, trace := s.flight.EnsureTrace(ctx)
	r := &request{
		ctx: ctx, x: x, enqueued: time.Now(), done: make(chan outcome, 1),
		trace: trace, tEnq: s.flight.Now(),
	}

	// The read lock pairs with Close's write lock: the queue can only be
	// closed while no sender holds the read side, so a send never races a
	// close. The send itself never blocks — a full queue is an overload.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Result{}, ErrClosed
	}
	select {
	case s.queue <- r:
		s.count(s.requests)
		s.gauge(s.queueDepth, float64(len(s.queue)))
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.count(s.overloads)
		return Result{}, ErrOverloaded
	}

	select {
	case out := <-r.done:
		return out.res, out.err
	case <-ctx.Done():
		s.count(s.canceled)
		return Result{}, ctx.Err()
	}
}

// batcher coalesces queued requests into batches of up to MaxBatch, flushing
// early once the oldest member has waited MaxWait. When Close closes the
// queue it flushes the tail and closes dispatch, releasing the workers.
func (s *Server) batcher(dispatch chan<- []*request) {
	defer s.wg.Done()
	defer close(dispatch)
	timer := time.NewTimer(s.cfg.MaxWait)
	defer timer.Stop()
	var batch []*request
	flush := func() {
		if len(batch) > 0 {
			dispatch <- batch
			batch = nil
		}
	}
	for {
		if len(batch) == 0 {
			r, ok := <-s.queue
			if !ok {
				return
			}
			s.gauge(s.queueDepth, float64(len(s.queue)))
			s.noteDequeued(r)
			batch = append(batch, r)
			if len(batch) >= s.cfg.MaxBatch {
				flush()
				continue
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(s.cfg.MaxWait)
			continue
		}
		select {
		case r, ok := <-s.queue:
			if !ok {
				flush()
				return
			}
			s.gauge(s.queueDepth, float64(len(s.queue)))
			s.noteDequeued(r)
			batch = append(batch, r)
			if len(batch) >= s.cfg.MaxBatch {
				flush()
			}
		case <-timer.C:
			flush()
		}
	}
}

// noteDequeued closes a request's queue-wait stage: the batcher has pulled it
// off the intake queue, so enqueue → now was time spent waiting for the
// batcher, and now becomes the start of the batch-formation stage.
func (s *Server) noteDequeued(r *request) {
	if !s.flight.Enabled() {
		return
	}
	r.tDeq = s.flight.Now()
	s.flight.RecordAt("serve_queue_wait", r.trace, flight.TrackRequests, r.tEnq, r.tDeq, 0)
}

// worker serves whole batches on its slot's replica. The slot pointer is
// read once per batch, so a concurrent Swap takes effect at the next batch
// boundary: every request in a batch is computed by, and attributed to,
// exactly one weight version. Requests whose context died in the queue are
// answered with their context error and excluded from the readout; a batch
// that shrinks to one request takes the serial single-request path
// (identical bits, no packing overhead).
func (s *Server) worker(slot int, track uint64, dispatch <-chan []*request) {
	defer s.wg.Done()
	for batch := range dispatch {
		st := s.slots[slot].Load()
		if s.beforeBatch != nil {
			s.beforeBatch()
		}
		live := batch[:0]
		for _, r := range batch {
			if err := r.ctx.Err(); err != nil {
				r.done <- outcome{err: err}
				continue
			}
			live = append(live, r)
		}
		if len(live) == 0 {
			continue
		}
		// The batch starts computing now: every member's batch-formation wait
		// ends at this shared instant, which is also where its compute stage
		// begins — the boundaries tile with no gap.
		tBatch := s.flight.Now()
		for _, r := range live {
			s.flight.RecordAt("serve_batch_wait", r.trace, flight.TrackRequests, r.tDeq, tBatch, 0)
		}
		s.count(s.batches)
		if s.batchSize != nil {
			s.batchSize.Observe(float64(len(live)))
		}
		xs := make([]*tensor.Tensor, len(live))
		for i, r := range live {
			xs[i] = r.x
		}
		ys, err := st.be.Forward(xs)
		// ErrClosed from a retired shard chain means a hot swap landed
		// between loading the slot and the call: reload the slot — the swap
		// installed the replacement before retiring the old chain — and
		// recompute on the new version. Bounded, because only a swap can
		// retire a chain out from under a live worker.
		for attempt := 0; err != nil && errors.Is(err, shard.ErrClosed) && attempt < 4; attempt++ {
			st = s.slots[slot].Load()
			ys, err = st.be.Forward(xs)
		}
		if err != nil {
			for _, r := range live {
				r.done <- outcome{err: err}
			}
			continue
		}
		for i, y := range ys {
			s.finish(live[i], y, tBatch, st.version)
		}
		s.flight.Record("serve_batch", 0, track, tBatch, int64(len(live)))
	}
}

func (s *Server) finish(r *request, y *tensor.Tensor, tBatch int64, version uint64) {
	_, class := y.Max()
	if s.flight.Enabled() {
		tDone := s.flight.Now()
		// The request span's arg carries the weight version that computed
		// the response, so a trace is attributable to its version too.
		s.flight.RecordAt("serve_compute", r.trace, flight.TrackRequests, tBatch, tDone, 0)
		s.flight.RecordAt("serve_request", r.trace, flight.TrackRequests, r.tEnq, tDone, int64(version))
		// The attribution histograms observe the very same boundary
		// timestamps the spans hold, so a trace and its aggregate can never
		// tell different stories.
		s.observeSeconds(s.queueWait, r.tDeq-r.tEnq)
		s.observeSeconds(s.batchWait, tBatch-r.tDeq)
		s.observeSeconds(s.computeTime, tDone-tBatch)
	}
	r.done <- outcome{res: Result{Scores: y, Class: class, Trace: r.trace, Version: version}}
	if s.latency != nil {
		s.latency.Add(time.Since(r.enqueued))
	}
	if s.latencyHist != nil {
		s.latencyHist.Observe(time.Since(r.enqueued).Seconds())
	}
}

func (s *Server) observeSeconds(h *telemetry.Histogram, ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.Observe(float64(ns) / 1e9)
}

// Close drains the server: no new requests are accepted, every queued
// request is served (or answered with its context error), and all scheduler
// goroutines exit before Close returns. A second Close reports ErrClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	// In sharded mode the workers share one chain; retire it after they all
	// exited so its shard goroutines are joined too. Chains replaced by
	// earlier swaps were already retired by Swap.
	if st := s.slots[0].Load(); st != nil {
		if c, ok := st.be.(*shard.Chain); ok {
			//pipelayer:allow-errdrop the workers are already joined, so the chain is idle and its Close can only report double-close; Server.Close's contract is that the first close returns nil once the drain finished
			c.Close()
		}
	}
	return nil
}

// Closed reports whether Close has begun.
func (s *Server) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// InputSize returns the expected number of input elements per request.
func (s *Server) InputSize() int { return s.in }

// RetryAfter estimates how long an overloaded caller should back off before
// retrying: the current queue depth divided into MaxBatch-sized batches,
// each taking at most one MaxWait window to form — rounded up to whole
// seconds (the Retry-After header's unit), never less than 1.
func (s *Server) RetryAfter() int {
	batches := len(s.queue)/s.cfg.MaxBatch + 1
	d := time.Duration(batches) * s.cfg.MaxWait
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) count(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (s *Server) gauge(g *telemetry.Gauge, v float64) {
	if g != nil {
		g.Set(v)
	}
}
