package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pipelayer/internal/serve"
	"pipelayer/internal/telemetry/flight"
)

// refOutput is the serial reference for one input under one weight version.
type refOutput struct {
	scores []float64
	class  int
}

type pendingObs struct {
	input   int
	version uint64
	res     serve.Result
}

// verifier holds every response to the serial Replica.Infer reference of
// the weight version that served it. References are published as an
// immutable map; responses from a version without a reference yet (a
// version promoted mid-phase) are held until resolve supplies it.
type verifier struct {
	refs       atomic.Pointer[map[uint64][]refOutput]
	mu         sync.Mutex
	pending    []pendingObs
	verified   atomic.Int64
	mismatches atomic.Int64
	final      uint64
}

func newVerifier() *verifier {
	v := &verifier{}
	v.refs.Store(&map[uint64][]refOutput{})
	return v
}

// publish installs the reference outputs of a version. A version published
// twice must agree bit for bit: set-up runs several times and each must
// rebuild the same machine.
func (v *verifier) publish(version uint64, refs []refOutput) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.refs.Load()
	if prev, ok := old[version]; ok {
		for i := range prev {
			if !sameBits(prev[i].scores, refs[i].scores) {
				return fmt.Errorf("set-up is not deterministic: version %d input %d differs between set-ups", version, i)
			}
		}
	}
	next := make(map[uint64][]refOutput, len(old)+1)
	for k, r := range old {
		next[k] = r
	}
	next[version] = refs
	v.refs.Store(&next)
	if version > v.final {
		v.final = version
	}
	return nil
}

// check verifies one response; it reports false on a mismatch.
func (v *verifier) check(input int, r serve.Result) bool {
	refs, ok := (*v.refs.Load())[r.Version]
	if !ok {
		v.mu.Lock()
		v.pending = append(v.pending, pendingObs{input, r.Version, r})
		v.mu.Unlock()
		return true
	}
	return v.compare(refs[input], r)
}

func (v *verifier) compare(want refOutput, r serve.Result) bool {
	if r.Class != want.class || !sameBits(r.Scores.Data(), want.scores) {
		v.mismatches.Add(1)
		return false
	}
	v.verified.Add(1)
	return true
}

// resolve verifies every held response, loading missing references with
// load. It returns how many held responses mismatched.
func (v *verifier) resolve(load func(version uint64) ([]refOutput, error)) (int64, error) {
	v.mu.Lock()
	pending := v.pending
	v.pending = nil
	v.mu.Unlock()
	bad := int64(0)
	for _, p := range pending {
		refs, ok := (*v.refs.Load())[p.version]
		if !ok {
			r, err := load(p.version)
			if err != nil {
				return bad, err
			}
			if err := v.publish(p.version, r); err != nil {
				return bad, err
			}
			refs = r
		}
		if !v.compare(refs[p.input], p.res) {
			bad++
		}
	}
	return bad, nil
}

// digest fingerprints the reference outputs of the newest version: FNV-1a
// over each input's class and the IEEE-754 bits of its scores.
func (v *verifier) digest() string {
	refs := (*v.refs.Load())[v.final]
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range refs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.class))
		h.Write(buf[:])
		for _, s := range r.scores {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// phase is the outcome of one load phase.
type phase struct {
	sent, ok, refused, errs, bad int64
	// lat holds per-request latency in ms from the due time; a refused or
	// failed request holds +Inf, so it misses every latency limit.
	lat []float64
	// late holds how far behind its schedule the generator sent each
	// request, in ms (open loop only).
	late    []float64
	elapsed time.Duration
	// backlog is the number of requests outstanding when the send schedule
	// ended (open loop only).
	backlog int64
	// sliceP50 and sliceP90 hold the latency percentiles of each slice
	// merged in by add.
	sliceP50, sliceP90 []float64
}

// add merges another slice of the same phase into p.
func (p *phase) add(o *phase) {
	p.sent += o.sent
	p.ok += o.ok
	p.refused += o.refused
	p.errs += o.errs
	p.bad += o.bad
	p.lat = append(p.lat, o.lat...)
	p.late = append(p.late, o.late...)
	p.elapsed += o.elapsed
	p.backlog = max(p.backlog, o.backlog)
	p.sliceP50 = append(p.sliceP50, quantile(o.lat, 0.5))
	p.sliceP90 = append(p.sliceP90, quantile(o.lat, 0.9))
}

// target is one serving layer under load, with the flight recorder its
// spans go to (nil when untraced).
type target struct {
	srv *serve.Server
	rec *flight.Recorder
}

// call sends input i and classifies the outcome into p. The request is
// timed from due (recorder clock dueNs when traced); the latency in ms is
// returned, +Inf when the request did not succeed.
func (b *bench) call(t target, p *phase, i int, due time.Time, dueNs int64) float64 {
	ctx := b.ctx
	var trace uint64
	if t.rec != nil {
		trace = t.rec.NextTrace()
		ctx = flight.WithTrace(ctx, trace)
	}
	in := i % len(b.inputs)
	res, err := t.srv.Predict(ctx, b.inputs[in])
	lat := float64(time.Since(due)) / 1e6
	if t.rec != nil {
		t.rec.RecordAt("bench_predict", trace, flight.TrackRequests, dueNs, t.rec.Now(), int64(in))
	}
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		atomic.AddInt64(&p.refused, 1)
		return math.Inf(1)
	case err != nil:
		atomic.AddInt64(&p.errs, 1)
		return math.Inf(1)
	case !b.ver.check(in, res):
		atomic.AddInt64(&p.bad, 1)
		return math.Inf(1)
	}
	atomic.AddInt64(&p.ok, 1)
	return lat
}

// closedLoop keeps `lanes` callers issuing back-to-back requests for dur.
func (b *bench) closedLoop(t target, lanes int, dur time.Duration) *phase {
	p := &phase{}
	var sent atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stopAt := start.Add(dur)
	for lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lane; ; i += lanes {
				now := time.Now()
				if !now.Before(stopAt) {
					return
				}
				sent.Add(1)
				b.call(t, p, i, now, t.rec.Now())
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.sent = sent.Load()
	return p
}

// send is one scheduled request handed from the generator to a caller.
type send struct {
	i     int
	due   time.Time
	dueNs int64
}

// openLoop sends requests at a fixed rate, on schedule whether or not
// earlier ones completed, until dur has elapsed or stop is closed. The
// generator itself allocates nothing per request, so it is never drafted
// into garbage-collection assists: idle callers take each send, and a new
// caller starts only when all are busy. Every caller has ended when
// openLoop returns.
func (b *bench) openLoop(t target, rate float64, dur time.Duration, stop <-chan struct{}) *phase {
	expect := int(rate*dur.Seconds()) + 1
	if stop != nil {
		expect = int(rate) + 1
	}
	p := &phase{lat: make([]float64, 0, expect), late: make([]float64, 0, expect)}
	var done atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	sends := make(chan send)
	caller := func() {
		defer wg.Done()
		for s := range sends {
			lat := b.call(t, p, s.i, s.due, s.dueNs)
			mu.Lock()
			p.lat = append(p.lat, lat)
			mu.Unlock()
			done.Add(1)
		}
	}
	for range b.wl.lanes() {
		wg.Add(1)
		go caller()
	}

	start := time.Now()
	startNs := t.rec.Now()
	interval := float64(time.Second) / rate
loop:
	for i := 0; ; i++ {
		off := time.Duration(float64(i) * interval)
		if stop == nil && off >= dur {
			break
		}
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop: // a nil stop never fires
			break loop
		default:
		}
		p.late = append(p.late, float64(time.Since(due))/1e6)
		p.sent++
		s := send{i: i, due: due, dueNs: startNs + int64(off)}
		select {
		case sends <- s:
		default:
			wg.Add(1)
			go caller()
			sends <- s
		}
	}
	p.backlog = p.sent - done.Load()
	close(sends)
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
