package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/online"
	"pipelayer/internal/parallel"
	"pipelayer/internal/serve"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/testutil"
)

const (
	traceCapacity    = 1 << 17
	trackBenchReplay = 200
	trackBenchStep   = 201
	onlineSteps      = 2 // solo and loaded Step calls in the online replay
)

// layerMetrics collects the per-layer metrics of a traced run.
type layerMetrics map[string]metric

func (m layerMetrics) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// runTraced is the traced run. It measures the serving layer once untraced
// and once with the flight recorder on, replays each layer on the same
// trained weights and inputs, writes the Chrome trace and prints the
// per-layer self-time table.
func (b *bench) runTraced() (map[string]metric, error) {
	rec := flight.New(flight.Config{Capacity: traceCapacity})
	rec.SetTrackName(trackBenchReplay, "bench replay")
	rec.SetTrackName(trackBenchStep, "bench step")
	m := layerMetrics{}
	w := b.wl

	var setupRec *flight.Recorder
	if w.online {
		setupRec = rec
	}
	e, err := b.setup(0, setupRec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	ph := &phases{rec: rec}
	ph.start()

	// Untraced (tU) and traced (tT) serving targets over the same weights.
	var (
		tU, tT     target
		regU, regT *telemetry.Registry
		machine    *core.Accelerator
		lo         *phase
	)
	if w.online {
		tT, regT = target{srv: e.srv, rec: rec}, e.reg
		if lo, err = b.onlineOwn(e, tT, m); err != nil {
			return nil, err
		}
		ph.cut("lo+steps")
		if machine, err = checkpointMachine(e.dir, w.spec(), e.sup.Version()); err != nil {
			return nil, err
		}
		regU = telemetry.NewRegistry()
		cfg := w.serve
		cfg.Metrics, cfg.InitialVersion = regU, e.sup.Version()
		srvU, err := serve.New(machine, cfg)
		if err != nil {
			return nil, err
		}
		defer srvU.Close()
		tU = target{srv: srvU}
	} else {
		machine, tU, regU = e.acc, target{srv: e.srv}, e.reg
		regT = telemetry.NewRegistry()
		cfg := w.serve
		cfg.Metrics, cfg.Flight, cfg.TraceDepth = regT, rec, 1
		srvT, err := serve.New(machine, cfg)
		if err != nil {
			return nil, err
		}
		defer srvT.Close()
		tT = target{srv: srvT, rec: rec}
	}

	// Untraced saturation: batch size, pool chunks, GC and CPU per request.
	satDur := b.frac(satShare)
	s0, r0 := regU.Snapshot(), readRT()
	_, _, c0 := parallel.Default().Stats()
	satU := b.closedLoop(tU, w.lanes(), satDur)
	_, _, c1 := parallel.Default().Stats()
	r1, s1 := readRT(), regU.Snapshot()
	b.account(satU, false)
	if satU.ok == 0 {
		return nil, fmt.Errorf("saturation phase completed no request")
	}
	satRPS := float64(satU.ok) / satU.elapsed.Seconds()
	okU := float64(satU.ok)
	batchSat := histMean(s0, s1, "serve_batch_size")
	m.put("serve.batch_size_mean_sat", batchSat, "req")
	m.put("parallel.chunks_per_req", float64(c1-c0)/okU, "count")
	m.put("runtime.gc_per_kreq", r1.delta(r0, rtGCCycles)/okU*1000, "count")
	m.put("runtime.gc_pause_p99_us", r1.histQuantile(r0, rtGCPauses, 0.99)*1e6, "us")
	cpuUs := float64(r1.cpu-r0.cpu) / 1e3 / okU
	gcUs := r1.delta(r0, rtGCCPU) * 1e6 / okU

	// Traced saturation: tracing overhead and shard utilization.
	ph.start()
	t0 := regT.Snapshot()
	satT := b.closedLoop(tT, w.lanes(), satDur)
	t1 := regT.Snapshot()
	ph.cut("sat")
	b.account(satT, false)
	m.put("bench.trace_overhead_frac", 1-float64(satT.ok)/satT.elapsed.Seconds()/satRPS, "ratio")
	if w.serve.Sharded() {
		b.shardUtil(m, t0, t1, satT.elapsed)
	}

	valid := &measurement{lo: &phase{}, hi: &phase{}}
	if lo == nil {
		l0 := regT.Snapshot()
		lo = b.validSlice(tT, w.lo, b.frac(loShare), valid, true)
		m.put("serve.batch_size_mean_lo", histMean(l0, regT.Snapshot(), "serve_batch_size"), "req")
		b.account(lo, false)
		ph.cut("lo")
	}
	valid.lo = lo
	h0, q0 := regT.Snapshot(), readRT()
	hi := b.validSlice(tT, w.hi, b.frac(hiShare), valid, false)
	q1, h1 := readRT(), regT.Snapshot()
	b.account(hi, false)
	ph.cut("hi")
	m.put("serve.batch_size_mean_hi", histMean(h0, h1, "serve_batch_size"), "req")
	for _, st := range []string{"queue_wait", "batch_wait", "compute"} {
		m.put("serve."+st+"_p50_ms_hi", histDelta(h0, h1, "serve_"+st+"_seconds").Quantile(0.5)*1e3, "ms")
	}
	m.put("runtime.sched_lat_p99_us", q1.histQuantile(q0, rtSchedLat, 0.99)*1e6, "us")
	m.put("serve.p99_ms_lo", quantile(lo.lat, 0.99), "ms")
	m.put("serve.p99_ms_hi", quantile(hi.lat, 0.99), "ms")
	refused, sent := int64(0), int64(0)
	for _, p := range []*phase{satU, satT, lo, hi} {
		refused += p.refused
		sent += p.sent
	}
	m.put("serve.refused_frac", float64(refused)/float64(sent), "ratio")
	m.put("bench.gen_late_p99_ms", quantile(append(append([]float64(nil), lo.late...), hi.late...), 0.99), "ms")

	if !w.online {
		if err := b.onlineReplay(tT, rec, m); err != nil {
			return nil, err
		}
		ph.cut("online-replay")
	}

	// Replays run on one pool worker, so a replayed time is the CPU cost
	// the saturated server pays for the same work.
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	backendUs, err := b.replayAll(machine, rec, m, batchSat)
	if err != nil {
		return nil, err
	}
	ph.cut("replay")
	cores := float64(runtime.GOMAXPROCS(0))
	perReqUs := cores * 1e6 / satRPS
	m.put("serve.self_us_per_req", perReqUs-backendUs, "us")
	fmt.Printf("# backend replay at batch %.1f: %.1f us/req; cores/sat_rps: %.1f us/req; ratio %.2f\n",
		batchSat, backendUs, perReqUs, backendUs/perReqUs)
	fmt.Printf("# cores/sat_rps %.1f us/req = process CPU %.1f (GC %.1f, the rest serve, load generator, scheduler and backend) + idle %.1f\n",
		perReqUs, cpuUs, gcUs, perReqUs-cpuUs)

	if err := b.writeTrace(rec, ph.tables); err != nil {
		return nil, err
	}
	return m, nil
}

// onlineOwn measures train-serve's own supervisor: solo Steps, then the
// fixed Step count served at the low rate.
func (b *bench) onlineOwn(e *env, t target, m layerMetrics) (*phase, error) {
	solo, err := b.steps(e.sup, onlineSteps, t.rec, nil)
	if err != nil {
		return nil, err
	}
	var stepMs []float64
	n := b.wl.stepCount(b.budget)
	l0 := e.reg.Snapshot()
	lo, d, err := b.trainSlice(e, t, n, &stepMs)
	if err != nil {
		return nil, err
	}
	m.put("serve.batch_size_mean_lo", histMean(l0, e.reg.Snapshot(), "serve_batch_size"), "req")
	b.account(lo, false)
	soloImgS := float64(onlineSteps*roundImages) / solo.Seconds()
	loadedImgS := float64(n*roundImages) / d.Seconds()
	onlineMetrics(m, t.rec, stepMs, soloImgS/loadedImgS)
	return lo, nil
}

// onlineReplay runs a small tiny-mlp supervisor next to a serving
// workload: Steps alone, then Steps while the workload serves at its low
// rate.
func (b *bench) onlineReplay(t target, rec *flight.Recorder, m layerMetrics) error {
	spec := testutil.TinyMLP("tiny-mlp")
	sup, err := online.New(online.NewSyntheticFeed(true, b.seed), online.Config{
		Spec:        spec,
		Seed:        b.seed,
		Dir:         filepath.Join(b.scratch, "online-replay"),
		Eval:        dataset.Generate(numInputs, dataset.DefaultOptions(true), b.seed+1),
		Serve:       serve.Config{Replicas: 1},
		Batch:       trainBatch,
		RoundImages: roundImages,
		LR:          trainLR,
		Tolerance:   1,
		Metrics:     telemetry.NewRegistry(),
		Flight:      rec,
	})
	if err != nil {
		return fmt.Errorf("online replay: %w", err)
	}
	defer sup.Close()
	solo, err := b.steps(sup, onlineSteps, rec, nil)
	if err != nil {
		return err
	}
	var stepMs []float64
	lo, loaded, err := b.loadedSteps(sup, t, onlineSteps, &stepMs)
	if err != nil {
		return err
	}
	b.account(lo, false)
	onlineMetrics(m, rec, stepMs, loaded.Seconds()/solo.Seconds())
	return nil
}

// onlineMetrics reads the supervisor's flight spans while they are still in
// the ring.
func onlineMetrics(m layerMetrics, rec *flight.Recorder, stepMs []float64, interference float64) {
	m.put("online.step_ms_p50", median(stepMs), "ms")
	durs := map[string][]float64{}
	for _, ev := range rec.Events() {
		switch ev.Name {
		case "online_round", "online_eval", "online_swap":
			durs[ev.Name] = append(durs[ev.Name], float64(ev.Dur())/1e6)
		}
	}
	m.put("online.round_ms_p50", median(durs["online_round"]), "ms")
	m.put("online.eval_ms_p50", median(durs["online_eval"]), "ms")
	m.put("online.swap_ms_p50", median(durs["online_swap"]), "ms")
	m.put("online.train_interference", interference, "ratio")
}

// shardUtil reports each shard's busy share of a window from the existing
// serve_shard_busy_seconds spans, and their max/min ratio.
func (b *bench) shardUtil(m layerMetrics, before, after telemetry.Snapshot, window time.Duration) {
	lo, hi := 1.0, 0.0
	for k := range 2 {
		name := telemetry.Name("serve_shard_busy_seconds", map[string]string{"shard": strconv.Itoa(k)})
		u := (after.Spans[name].TotalSeconds - before.Spans[name].TotalSeconds) / window.Seconds()
		m.put(fmt.Sprintf("shard.%d.util", k), u, "ratio")
		lo, hi = min(lo, u), max(hi, u)
	}
	m.put("shard.imbalance", hi/lo, "ratio")
}

func histDelta(a, b telemetry.Snapshot, name string) telemetry.HistogramSnapshot {
	h := b.Histograms[name]
	prev, ok := a.Histograms[name]
	if !ok {
		return h
	}
	d := telemetry.HistogramSnapshot{Bounds: h.Bounds, Counts: make([]uint64, len(h.Counts)), Sum: h.Sum - prev.Sum, Count: h.Count - prev.Count}
	for i := range h.Counts {
		d.Counts[i] = h.Counts[i] - prev.Counts[i]
	}
	return d
}

// histMean is the mean of the observations a histogram gained between two
// snapshots.
func histMean(a, b telemetry.Snapshot, name string) float64 {
	d := histDelta(a, b, name)
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// freshMachine builds an untrained machine of spec with seeded weights; the
// replays use it for the network the workload does not serve, and the
// measured run for its training slices.
func freshMachine(specName string, seed int64) (*core.Accelerator, error) {
	spec := testutil.TinyMLP(specName)
	if specName == "tiny-cnn" {
		spec = testutil.TinyDeepCNN(specName)
	}
	acc := core.New(energy.DefaultModel())
	if err := acc.TopologySet(spec, 1); err != nil {
		return nil, err
	}
	if err := acc.WeightLoad(nil, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	return acc, nil
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes each span's self time — its duration minus the part
// of it that the spans nested inside it on the same lane cover — and sums
// it per span name. A lane is a track, and on the request track one trace.
func selfTimes(events []flight.Event) []selfRow {
	type lane struct{ track, trace uint64 }
	lanes := map[lane][]flight.Event{}
	for _, ev := range events {
		k := lane{track: ev.Track}
		if ev.Track == flight.TrackRequests {
			k.trace = ev.Trace
		}
		lanes[k] = append(lanes[k], ev)
	}
	rows := map[string]*selfRow{}
	for _, evs := range lanes {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Start != evs[j].Start {
				return evs[i].Start < evs[j].Start
			}
			return evs[i].End > evs[j].End
		})
		type open struct {
			ev               flight.Event
			covered, coverTo int64
		}
		var stack []*open
		closeTop := func() {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r := rows[top.ev.Name]
			if r == nil {
				r = &selfRow{Name: top.ev.Name}
				rows[top.ev.Name] = r
			}
			r.Count++
			r.TotalMs += float64(top.ev.Dur()) / 1e6
			r.SelfMs += float64(top.ev.Dur()-top.covered) / 1e6
		}
		for _, ev := range evs {
			for len(stack) > 0 && stack[len(stack)-1].ev.End < ev.End {
				closeTop()
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				s := max(ev.Start, p.coverTo)
				if ev.End > s {
					p.covered += ev.End - s
					p.coverTo = ev.End
				}
			}
			stack = append(stack, &open{ev: ev, coverTo: ev.Start})
		}
		for len(stack) > 0 {
			closeTop()
		}
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// phaseTable is the self-time table of one phase of the traced run.
type phaseTable struct {
	Phase string `json:"phase"`
	Spans int    `json:"spans"`
	// Complete is false when the ring overwrote the phase's first spans
	// before the table was computed; the rows then cover its last spans.
	Complete bool      `json:"complete"`
	Rows     []selfRow `json:"rows"`
}

// phases cuts the traced run into phases and computes each one's self-time
// table as it ends, before later phases overwrite its spans in the ring.
type phases struct {
	rec    *flight.Recorder
	from   int64 // recorder time the current phase began
	tables []phaseTable
}

func (p *phases) start() { p.from = p.rec.Now() }

// cut tabulates the spans that started since the current phase began and
// starts the next phase. Every span of the phase is still in the ring when
// nothing was ever overwritten or the oldest retained span predates it.
func (p *phases) cut(name string) {
	evs := p.rec.Events()
	complete := p.rec.Dropped() == 0 || (len(evs) > 0 && evs[0].Start < p.from)
	var in []flight.Event
	for _, ev := range evs {
		if ev.Start >= p.from {
			in = append(in, ev)
		}
	}
	p.tables = append(p.tables, phaseTable{Phase: name, Spans: len(in), Complete: complete, Rows: selfTimes(in)})
	p.from = p.rec.Now()
}

// writeTrace prints the per-phase self-time tables and writes the Chrome
// trace of the spans still in the ring, with the tables under otherData.
func (b *bench) writeTrace(rec *flight.Recorder, tables []phaseTable) error {
	fmt.Printf("# self-time tables per phase (ring of %d spans, %d overwritten over the run)\n", traceCapacity, rec.Dropped())
	for _, t := range tables {
		cover := "all its spans"
		if !t.Complete {
			cover = "its last spans only: the ring overwrote the rest"
		}
		fmt.Printf("# phase %s: %d spans, %s\n", t.Phase, t.Spans, cover)
		fmt.Printf("# %-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, r := range t.Rows {
			fmt.Printf("# %-24s %8d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMs, r.SelfMs)
		}
	}
	raw, err := rec.MarshalChrome()
	if err != nil {
		return err
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	doc["otherData"] = map[string]any{"workload": b.wl.name, "seed": b.seed, "self_time": tables}
	out, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.traces, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.traces, b.wl.name+".json")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("# trace written to %s\n", path)
	return nil
}
