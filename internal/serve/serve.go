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
// request has waited MaxWait; workers take whole batches from an unbuffered
// dispatch channel and carry each through one shared shard chain
// (internal/shard): S layer-range stages, stage k a pool of g_k replicas
// of the trained machine, one multi-column readout per weighted
// layer. Unsharded serving is the one-stage chain. Close stops intake,
// flushes everything in flight, and joins every goroutine: a clean drain,
// by construction.
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
	// Replicas is the number of workers — the batches in flight at once —
	// and the shard chain's total replica budget (default max(Shards, 1)).
	// Each replica shares the trained machine's programmed arrays but owns
	// its activation state. Every shard gets one replica and each further
	// one goes to the shard with the highest cost per replica, so an
	// unsharded server runs Replicas whole-model replicas and a sharded one
	// replicates its bottleneck shard.
	Replicas int
	// Shards, when >= 2, splits the network into a pipelined chain of
	// contiguous layer-range shards (internal/shard): shard k computes batch
	// i+1 while shard k+1 computes batch i — the paper's Figure 6
	// inter-layer pipeline on the serving path. 0 or 1 serve the whole
	// network as one shard. The layer partition is balanced automatically
	// by per-layer compute cost (measured trainer telemetry in Metrics when
	// complete, analytic MAC counts otherwise) and stays fixed across hot
	// swaps. Outputs remain bit-identical to the unsharded path.
	Shards int
	// ShardRanges assigns the layer partition explicitly (must tile the
	// engine stack); non-empty ShardRanges overrides Shards.
	ShardRanges []shard.Range
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
	// gauge, batch-size histogram, request latency histogram, and outcome
	// counters.
	Metrics *telemetry.Registry

	// Flight, when non-nil, records every request's per-stage decomposition:
	// serve_queue_wait (enqueue → batcher dequeue), serve_batch_wait
	// (dequeue → worker batch start) and serve_compute (batch start →
	// result) spans on the request track, plus a serve_batch span per
	// executed batch on the worker's track. Adjacent spans share
	// their boundary timestamps, so the three stages sum to the recorded
	// end-to-end latency exactly. The serve_queue_wait_seconds /
	// serve_batch_wait_seconds / serve_compute_seconds histograms in Metrics
	// are observed from the same boundary instants — aggregate metrics and
	// traces can never disagree.
	Flight *flight.Recorder

	// TraceDepth selects how deep the tracing reaches when Flight is set:
	// 0 records request-stage spans only, 1 adds a core_layer_forward span
	// per layer per batch, 2 additionally traces each crossbar readout
	// (arch_readout_cols), each on the computing replica's track.
	TraceDepth int

	// InitialVersion is the weight version the initial replicas serve as
	// (defaults to 1). Every response is attributed to exactly one version:
	// the one its batch's worker loaded when the batch started. Hot swaps
	// install later versions via Swap.
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

// Sharded reports whether the config sets a layer partition: two or more
// Shards, or explicit ShardRanges.
func (c Config) Sharded() bool { return c.Shards >= 2 || len(c.ShardRanges) >= 1 }

// WithDefaults returns the config with every zero field replaced by its
// documented default (one replica per shard, batches of 16, 2 ms window,
// 64-deep queue). New applies it automatically; external callers use it to
// read the *effective* configuration instead of zeros (pipelayer-serve
// -smoke sizes its queue from it).
func (c Config) WithDefaults() Config {
	if len(c.ShardRanges) > 0 {
		c.Shards = len(c.ShardRanges)
	}
	if c.Replicas <= 0 {
		// A pipeline only overlaps when several batches are in flight; one
		// worker per shard is the natural fill.
		c.Replicas = max(c.Shards, 1)
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
// response, taken from the chain the worker loaded at batch start, so a
// response can never mix weights from two versions.
type Result struct {
	Scores  *tensor.Tensor
	Class   int
	Trace   uint64
	Version uint64
}

// backendState pairs the serving chain with the weight version it was
// built from. Workers load it once per batch, so a swap lands between
// batches, never inside one.
type backendState struct {
	chain   *shard.Chain
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

	// state is the installed chain and its version, swapped atomically;
	// readiness is the /healthz state (Readiness values).
	state     atomic.Pointer[backendState]
	readiness atomic.Int32

	mu     sync.RWMutex // guards closed against the queue close in Close
	closed bool

	wg sync.WaitGroup

	beforeBatch func() // Config.testHookBeforeBatch, fixed at construction

	flight *flight.Recorder

	queueDepth  *telemetry.Gauge
	batchSize   *telemetry.Histogram
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

// New builds the serving chain from the trained accelerator and starts the
// scheduler: cfg.Shards layer-range shards (one when unsharded) sharing a
// budget of cfg.Replicas replicas, and cfg.Replicas workers carrying
// batches through it. The accelerator must have weights loaded
// (NewReplica's requirement); it is not otherwise touched, so training-side
// state stays where it was.
func New(a *core.Accelerator, cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	rep, err := a.NewReplica()
	if err != nil {
		return nil, err
	}
	// Track 0 is the request lane and worker i owns track i+1; the chain's
	// replicas take the tracks above the workers.
	chain, err := shard.New(rep, shard.Config{
		Shards:      cfg.Shards,
		Ranges:      cfg.ShardRanges,
		Replicas:    cfg.Replicas,
		Metrics:     cfg.Metrics,
		Flight:      cfg.Flight,
		TrackBase:   uint64(cfg.Replicas) + 1,
		TraceDepth:  cfg.TraceDepth,
		BeforeStage: cfg.testHookBeforeShard,
	})
	if err != nil {
		return nil, err
	}
	spec := a.Spec()
	s := &Server{
		cfg:         cfg,
		in:          spec.InC * spec.InH * spec.InW,
		spec:        spec,
		queue:       make(chan *request, cfg.QueueCap),
		beforeBatch: cfg.testHookBeforeBatch,
		flight:      cfg.Flight,
	}
	if reg := cfg.Metrics; reg != nil {
		s.queueDepth = reg.Gauge("serve_queue_depth")
		s.batchSize = reg.Histogram("serve_batch_size", []float64{1, 2, 4, 8, 16, 32, 64})
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
	s.state.Store(&backendState{chain: chain, version: cfg.InitialVersion})
	s.gauge(s.weightVer, float64(cfg.InitialVersion))

	dispatch := make(chan []*request) // unbuffered: the batcher feels worker backpressure
	s.wg.Add(1)
	go s.batcher(dispatch)
	for i := range cfg.Replicas {
		track := uint64(i) + 1
		if s.flight.Enabled() {
			s.flight.SetTrackName(track, fmt.Sprintf("worker %d", i))
		}
		s.wg.Add(1)
		go s.worker(track, dispatch)
	}
	return s, nil
}

// Swap installs the accelerator's weights as the given version: it builds a
// chain of the installed one's shape — the same ranges and per-shard replica
// counts — from a fresh replica of a, then publishes it with one atomic
// store. Workers load the chain once per batch, so batches already in
// flight finish on the old chain and report the old version while every
// later batch runs the new one; Swap waits for neither. No request is
// dropped, delayed or torn — the queue and batcher are untouched. a must
// serve the same network spec and should be built from a weight snapshot
// (core.NewFromSnapshot), not be a machine still training.
func (s *Server) Swap(a *core.Accelerator, version uint64) error {
	if a == nil {
		return errors.New("serve: swap to a nil accelerator")
	}
	if version == 0 {
		return errors.New("serve: swap to version 0")
	}
	if !reflect.DeepEqual(a.Spec(), s.spec) {
		return fmt.Errorf("serve: swap serves spec %q, server serves %q — the topology must not change across versions",
			a.Spec().Name, s.spec.Name)
	}
	rep, err := a.NewReplica()
	if err != nil {
		return err
	}
	chain, err := s.state.Load().chain.Rebuild(rep)
	if err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.state.Store(&backendState{chain: chain, version: version})
	s.gauge(s.weightVer, float64(version))
	s.count(s.swaps)
	return nil
}

// Version returns the most recently installed weight version.
func (s *Server) Version() uint64 { return s.state.Load().version }

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
	if len(s.spec.Layers) > 0 && s.spec.Layers[0].Kind != mapping.KindFC {
		// HTTP clients send flat vectors; a conv front layer needs the
		// (C,H,W) image. Reshape is a view — no copy. Any other shape would
		// reach a worker's Im2Col and panic there.
		if x.Rank() == 1 {
			x = x.Reshape(s.spec.InC, s.spec.InH, s.spec.InW)
		} else if sh := x.Shape(); len(sh) != 3 || sh[0] != s.spec.InC || sh[1] != s.spec.InH || sh[2] != s.spec.InW {
			return Result{}, fmt.Errorf("serve: input shape %v, want flat or (%d,%d,%d)", sh, s.spec.InC, s.spec.InH, s.spec.InW)
		}
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

// worker carries whole batches through the installed chain. The chain is
// loaded once per batch, so a concurrent Swap takes effect at the next batch
// boundary: every request in a batch is computed by, and attributed to,
// exactly one weight version. Requests whose context died in the queue are
// answered with their context error and excluded from the readout; a batch
// that shrinks to one request is a batch of one, the one-column readout the
// serial Replica.Infer runs.
func (s *Server) worker(track uint64, dispatch <-chan []*request) {
	defer s.wg.Done()
	for batch := range dispatch {
		st := s.state.Load()
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
		ys, err := st.chain.Forward(xs)
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
