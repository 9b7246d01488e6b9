// Package flight is the request-scoped flight recorder: a dependency-free,
// bounded ring buffer of structured trace events that decomposes every
// serving request — and every training image — into per-stage spans with
// wall-clock timestamps. Where the telemetry registry aggregates (a latency
// histogram says requests are slow), the flight recorder attributes (this
// request spent 1.8 ms waiting for its batch to fill): the live counterpart
// of the paper's Figure 6 schedule, lifted from the cycle simulator into the
// real serving and training paths.
//
// The recorder is nil-safe and free when disabled: every method on a nil
// *Recorder returns immediately, so hot paths guard instrumentation with a
// single pointer test and pay nothing when tracing is off. When enabled, one
// event costs one mutex acquisition and one struct store into a
// preallocated slot — no allocation, ever, on the record path.
//
// The clock is injected (Config.Clock) rather than read ambiently, for two
// reasons: tests pin a fake clock and assert exact span arithmetic, and the
// hot-path packages (core, arch) that emit events never touch time.Now
// themselves — the nondeterminism analyzer keeps enforcing that wall-clock
// reads stay out of result-bearing code, while the recorder confines them
// to this package.
//
// Event names are part of the observability namespace: like telemetry
// metric names they must be lower_snake_case compile-time constants at the
// call site (machine-enforced by the metricname analyzer), with the
// variable part of an event — layer index, batch width, worker id — carried
// in the Arg field, not the name.
package flight

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one recorded span: a named interval on a track, optionally
// attributed to a request trace.
type Event struct {
	// Name is the constant lower_snake_case stage name (e.g.
	// "serve_queue_wait"); the variable detail goes in Arg.
	Name string
	// Trace attributes the event to one request (or one training image);
	// 0 means unattributed unit work.
	Trace uint64
	// Track is the timeline row: TrackRequests (0) for request-scoped
	// spans, a worker/stage id otherwise.
	Track uint64
	// Start and End are nanoseconds since the recorder's epoch.
	Start, End int64
	// Arg is the stage-dependent detail: layer index, batch width, worker
	// id. Exported as args.arg in the Chrome trace.
	Arg int64
}

// Dur returns the event's duration in nanoseconds (never negative).
func (e Event) Dur() int64 {
	if e.End < e.Start {
		return 0
	}
	return e.End - e.Start
}

// TrackRequests is the reserved track for request-scoped spans: events
// recorded here with a nonzero Trace export as per-request async lanes
// (queue-wait → batch-wait → compute) rather than as rows of a worker
// timeline.
const TrackRequests uint64 = 0

// DefaultCapacity is the ring size New uses when Config.Capacity is zero:
// enough for a few thousand fully-decomposed requests.
const DefaultCapacity = 1 << 14

// Config configures a Recorder.
type Config struct {
	// Capacity bounds the ring buffer; once full, each new event overwrites
	// the oldest (counted by Dropped). 0 means DefaultCapacity.
	Capacity int
	// Clock supplies timestamps; nil means time.Now. Tests inject a fake
	// clock to make span arithmetic exact.
	Clock func() time.Time
}

// Recorder is a bounded in-memory flight recorder. All methods are safe for
// concurrent use and safe on a nil receiver (where they no-op), so a single
// *Recorder field — possibly nil — is the whole on/off switch.
type Recorder struct {
	clock func() time.Time
	epoch time.Time

	nextTrace atomic.Uint64

	mu     sync.Mutex
	buf    []Event
	total  uint64 // events ever recorded; buf[(total-1)%cap] is the newest
	tracks map[uint64]string
}

// New creates a recorder whose epoch is "now" on the configured clock.
func New(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Recorder{
		clock:  cfg.Clock,
		epoch:  cfg.Clock(),
		buf:    make([]Event, 0, cfg.Capacity),
		tracks: map[uint64]string{},
	}
}

// Enabled reports whether events are being recorded; false on nil.
func (r *Recorder) Enabled() bool { return r != nil }

// Now returns the current offset from the recorder epoch in nanoseconds
// (0 on a nil recorder). Span emitters read boundary timestamps with Now
// and hand them back to RecordAt, so adjacent spans share their boundary
// instant exactly and per-stage durations sum to the end-to-end latency by
// construction.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(r.clock().Sub(r.epoch))
}

// processStart is the origin of Clock(nil).
var processStart = time.Now()

// Clock returns the clock a component reads its boundary instants from, in
// nanoseconds: rec.Now for a recorder, so every reading is also an event
// timestamp, and monotonic time since process start for nil, so metrics
// still get durations while tracing is off. A component picks its clock
// once, when it is built or its recorder attached, and gives each reading
// to both its metric and its event.
func Clock(rec *Recorder) func() int64 {
	if rec != nil {
		return rec.Now
	}
	return func() int64 { return int64(time.Since(processStart)) }
}

// NextTrace allocates a fresh nonzero trace id (0 on a nil recorder). Ids
// are a monotonic counter, not random: replays of a deterministic load
// produce the same attribution.
func (r *Recorder) NextTrace() uint64 {
	if r == nil {
		return 0
	}
	return r.nextTrace.Add(1)
}

// Record records a span that started at start (a Now value) and ends now.
func (r *Recorder) Record(name string, trace, track uint64, start, arg int64) {
	if r == nil {
		return
	}
	r.RecordAt(name, trace, track, start, r.Now(), arg)
}

// RecordAt records a span with explicit boundaries. It never allocates:
// the ring slot is reused in place once the buffer has grown to capacity.
func (r *Recorder) RecordAt(name string, trace, track uint64, start, end, arg int64) {
	if r == nil {
		return
	}
	ev := Event{Name: name, Trace: trace, Track: track, Start: start, End: end, Arg: arg}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.total%uint64(cap(r.buf))] = ev
	}
	r.total++
	r.mu.Unlock()
}

// SetTrackName names a timeline row for the exports ("replica 2",
// "stage 3 forward"). Safe to call repeatedly; last write wins.
func (r *Recorder) SetTrackName(track uint64, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tracks[track] = name
	r.mu.Unlock()
}

// TrackName returns the name given to a track ("" if none, or nil recorder).
func (r *Recorder) TrackName(track uint64) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracks[track]
}

// Events returns a copy of the retained events, oldest first. On a nil
// recorder it returns nil.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.buf))
	if len(r.buf) < cap(r.buf) || len(r.buf) == 0 {
		copy(out, r.buf)
		return out
	}
	// Wrapped ring: the oldest retained event is the next overwrite slot.
	head := int(r.total % uint64(cap(r.buf)))
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}

// Len returns the number of retained events (0 on nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many events have been overwritten by ring wraparound.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(cap(r.buf)) {
		return 0
	}
	return r.total - uint64(cap(r.buf))
}

// Reset discards all retained events and drop counts (track names stay).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.total = 0
	r.mu.Unlock()
}

// snapshot returns the retained events oldest-first plus a copy of the
// track-name table, under one lock acquisition.
func (r *Recorder) snapshot() ([]Event, map[uint64]string) {
	if r == nil {
		return nil, nil
	}
	events := r.Events()
	r.mu.Lock()
	tracks := make(map[uint64]string, len(r.tracks))
	for k, v := range r.tracks {
		tracks[k] = v
	}
	r.mu.Unlock()
	return events, tracks
}

// sortedTracks returns the track ids appearing in events or the name table,
// ascending.
func sortedTracks(events []Event, names map[uint64]string) []uint64 {
	seen := map[uint64]bool{}
	for _, e := range events {
		seen[e.Track] = true
	}
	for t := range names {
		seen[t] = true
	}
	out := make([]uint64, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ctxKey is the context key for the propagated trace id.
type ctxKey struct{}

// WithTrace returns a context carrying the given trace id; downstream
// Predict calls attribute their spans to it instead of allocating a new
// one. The id travels by value — no recorder reference rides the context,
// so a handler can stamp ids whether or not tracing is enabled.
func WithTrace(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// TraceFrom extracts the propagated trace id (ok=false if none).
func TraceFrom(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(ctxKey{}).(uint64)
	return id, ok && id != 0
}

// EnsureTrace returns the context's trace id, or allocates a fresh one from
// the recorder and attaches it. On a nil recorder it returns (ctx, 0).
func (r *Recorder) EnsureTrace(ctx context.Context) (context.Context, uint64) {
	if r == nil {
		return ctx, 0
	}
	if id, ok := TraceFrom(ctx); ok {
		return ctx, id
	}
	id := r.NextTrace()
	return WithTrace(ctx, id), id
}
