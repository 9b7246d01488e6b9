package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pipelayer/internal/checkpoint"
	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/online"
	"pipelayer/internal/serve"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// workload is one fixed serving configuration and traffic mix. Rates are
// absolute numbers, never fractions of a measured capacity, so a parent
// commit and a change receive identical offered load.
type workload struct {
	name    string
	network string // "tiny-mlp" or "tiny-cnn"
	serve   serve.Config

	lo, hi  float64 // open-loop rates, requests/s
	limitMs float64 // p90 latency limit for goodput

	// Set-up training of the served machine (serving workloads); a
	// multiple of rounds × trainBatch, so each round of the run can train
	// whole batches of the same images on a second machine.
	trainImages int

	// setups is how many set-ups a run times; a cheap set-up runs more
	// often so its median is as steady as a costly one's.
	setups int

	// trials is how many goodput trials each round runs. A trial must last
	// tens of latency limits for an overload to show in its p90, so a
	// workload with a longer limit runs fewer, longer trials.
	trials int

	// online marks the train-while-serve workload: an online.Supervisor
	// trains `steps` rounds per 10 s of budget while serving at lo.
	online bool
	steps  float64
}

const (
	trainBatch  = 8
	trainLR     = 0.05
	roundImages = 256
	numInputs   = 256 // distinct held-out inputs the requests cycle through
	ladderRungs = 128 // goodput ladder: lo × 1.05^k, k < 128, bisected in 7 trials
	ladderStep  = 1.05
)

var workloads = map[string]workload{
	"mlp-serve": {
		name: "mlp-serve", network: "tiny-mlp",
		serve: serve.Config{Replicas: 2, MaxBatch: 16, QueueCap: 1024},
		lo:    2000, hi: 10000, limitMs: 10,
		trainImages: 1056, setups: 5, trials: 6,
	},
	"cnn-shard": {
		name: "cnn-shard", network: "tiny-cnn",
		serve: serve.Config{Shards: 2, MaxBatch: 16, QueueCap: 256, MaxWait: 5 * time.Millisecond},
		lo:    200, hi: 600, limitMs: 25,
		trainImages: 144, setups: 3, trials: 3,
	},
	"train-serve": {
		name: "train-serve", network: "tiny-mlp",
		serve: serve.Config{Replicas: 2, MaxBatch: 16, QueueCap: 1024},
		lo:    2000, hi: 10000, limitMs: 10,
		online: true, steps: 6, setups: 11, trials: 6,
	},
}

func workloadNames() []string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func (w workload) spec() networks.Spec {
	if w.network == "tiny-cnn" {
		return testutil.TinyDeepCNN(w.network)
	}
	return testutil.TinyMLP(w.network)
}

func (w workload) flat() bool { return w.spec().Layers[0].Kind == mapping.KindFC }

// lanes is the closed-loop caller count: enough to fill every replica's
// batch twice over.
func (w workload) lanes() int {
	c := w.serve.WithDefaults()
	return 2 * c.MaxBatch * c.Replicas
}

// stepCount is the fixed number of online Step calls for a run budget.
func (w workload) stepCount(budget time.Duration) int {
	return max(2, int(math.Round(w.steps*budget.Seconds()/10)))
}

type bench struct {
	ctx     context.Context
	wl      workload
	seed    int64
	budget  time.Duration
	traced  bool
	scratch string
	traces  string

	inputs []*tensor.Tensor
	ver    *verifier

	attempted, failed atomic.Int64
	discarded         int           // invalid slices measured again
	retried           time.Duration // time spent on discarded slices
	invalid           string        // why the run is invalid, if it is
}

// env is one set-up: the trained machine and the serving layer in front of
// it (plus the supervisor on train-serve).
type env struct {
	acc *core.Accelerator // serving machine (nil on train-serve)
	srv *serve.Server
	reg *telemetry.Registry
	sup *online.Supervisor
	dir string // checkpoint store (train-serve)

}

func (e *env) close() error {
	if e.sup != nil {
		return e.sup.Close()
	}
	return e.srv.Close()
}

// setup generates the data, trains, builds the server or supervisor,
// computes the serial reference outputs and warms up. rec, when non-nil,
// traces the server (and the supervisor).
func (b *bench) setup(k int, rec *flight.Recorder) (*env, error) {
	w := b.wl
	spec := w.spec()
	inputs := dataset.Generate(numInputs, dataset.DefaultOptions(w.flat()), b.seed+7919)
	b.inputs = make([]*tensor.Tensor, len(inputs))
	for i, s := range inputs {
		b.inputs[i] = s.Input
	}
	reg := telemetry.NewRegistry()
	cfg := w.serve
	cfg.Metrics = reg
	cfg.Flight = rec
	if rec != nil {
		cfg.TraceDepth = 1
	}
	e := &env{reg: reg}

	if w.online {
		e.dir = filepath.Join(b.scratch, fmt.Sprintf("setup-%d", k))
		sup, err := online.New(online.NewSyntheticFeed(w.flat(), b.seed), online.Config{
			Spec:        spec,
			Seed:        b.seed,
			Dir:         e.dir,
			Eval:        dataset.Generate(numInputs, dataset.DefaultOptions(w.flat()), b.seed+1),
			Serve:       cfg,
			Batch:       trainBatch,
			RoundImages: roundImages,
			LR:          trainLR,
			Tolerance:   1, // every round promotes
			Metrics:     reg,
			Flight:      rec,
		})
		if err != nil {
			return nil, fmt.Errorf("online supervisor: %w", err)
		}
		e.sup, e.srv = sup, sup.Server()
		refs, err := checkpointRefs(e.dir, spec, sup.Version(), b.inputs)
		if err != nil {
			sup.Close()
			return nil, err
		}
		if err := b.ver.publish(sup.Version(), refs); err != nil {
			sup.Close()
			return nil, err
		}
	} else {
		acc := core.New(energy.DefaultModel())
		if err := acc.TopologySet(spec, 1); err != nil {
			return nil, err
		}
		if err := acc.WeightLoad(nil, rand.New(rand.NewSource(b.seed))); err != nil {
			return nil, err
		}
		train := dataset.Generate(w.trainImages, dataset.DefaultOptions(w.flat()), b.seed)
		if _, err := acc.Train(train, trainBatch, trainLR); err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
		srv, err := serve.New(acc, cfg)
		if err != nil {
			return nil, err
		}
		e.acc, e.srv = acc, srv
		refs, err := replicaRefs(acc, b.inputs)
		if err != nil {
			srv.Close()
			return nil, err
		}
		if err := b.ver.publish(cfg.WithDefaults().InitialVersion, refs); err != nil {
			srv.Close()
			return nil, err
		}
	}

	// Warm-up: a fixed number of closed-loop requests, verified but not
	// counted.
	warm := &phase{}
	lanes := w.lanes()
	done := make(chan struct{})
	for lane := range lanes {
		go func() {
			for i := lane; i < 8*lanes; i += lanes {
				b.call(target{srv: e.srv}, warm, i, time.Now(), 0)
			}
			done <- struct{}{}
		}()
	}
	for range lanes {
		<-done
	}
	if warm.ok != int64(8*lanes) {
		e.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests succeeded", warm.ok, 8*lanes)
	}
	return e, nil
}

// replicaRefs runs every input through the serial single-request path.
func replicaRefs(acc *core.Accelerator, inputs []*tensor.Tensor) ([]refOutput, error) {
	rep, err := acc.NewReplica()
	if err != nil {
		return nil, err
	}
	out := make([]refOutput, len(inputs))
	for i, x := range inputs {
		y := rep.Infer(x)
		_, class := y.Max()
		out[i] = refOutput{scores: y.Data(), class: class}
	}
	return out, nil
}

// checkpointMachine rebuilds weight version v from the supervisor's store.
func checkpointMachine(dir string, spec networks.Spec, v uint64) (*core.Accelerator, error) {
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	net := networks.BuildTrainable(spec, rand.New(rand.NewSource(0)))
	if _, err := store.Load(v, net); err != nil {
		return nil, fmt.Errorf("load v%d: %w", v, err)
	}
	return core.NewFromSnapshot(energy.DefaultModel(), spec, 1, net)
}

func checkpointRefs(dir string, spec networks.Spec, v uint64, inputs []*tensor.Tensor) ([]refOutput, error) {
	acc, err := checkpointMachine(dir, spec, v)
	if err != nil {
		return nil, err
	}
	return replicaRefs(acc, inputs)
}

// setupMedian runs set-up w.setups times, keeps the last and returns the
// median set-up time in seconds.
func (b *bench) setupMedian(rec *flight.Recorder) (*env, float64, error) {
	var times []float64
	var e *env
	for k := range b.wl.setups {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = b.setup(k, rec); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	fmt.Printf("# setup_s runs=%.4f\n", times)
	return e, median(times), nil
}

// account adds a measured phase to the run's attempted/failed totals.
// Inside goodput trials refusals are the measurement, so only errors and
// mismatches count there.
func (b *bench) account(p *phase, trial bool) {
	b.attempted.Add(p.sent)
	f := p.errs + p.bad
	if !trial {
		f += p.refused
	}
	b.failed.Add(f)
}

// trainSlice runs n Step calls while serving at the low rate on the
// supervisor's server, then bit-checks the responses the newly promoted
// versions served. It returns the lo-rate phase and the training time.
func (b *bench) trainSlice(e *env, t target, n int, stepMs *[]float64) (*phase, time.Duration, error) {
	lo, d, err := b.loadedSteps(e.sup, t, n, stepMs)
	if err != nil {
		return nil, 0, err
	}
	bad, err := b.ver.resolve(func(v uint64) ([]refOutput, error) {
		return checkpointRefs(e.dir, b.wl.spec(), v, b.inputs)
	})
	if err != nil {
		return nil, 0, err
	}
	lo.bad += bad
	lo.ok -= bad
	return lo, d, nil
}

// loadedSteps runs n supervisor Steps while t is served at the low rate,
// and returns the lo-rate phase and the Steps' wall time.
func (b *bench) loadedSteps(sup *online.Supervisor, t target, n int, stepMs *[]float64) (*phase, time.Duration, error) {
	stop := make(chan struct{})
	res := make(chan *phase, 1)
	go func() { res <- b.openLoop(t, b.wl.lo, 0, stop) }()
	d, err := b.steps(sup, n, t.rec, stepMs)
	close(stop)
	return <-res, d, err
}

// steps runs n supervisor Steps and returns their wall time.
func (b *bench) steps(sup *online.Supervisor, n int, rec *flight.Recorder, stepMs *[]float64) (time.Duration, error) {
	start := time.Now()
	for range n {
		t0 := time.Now()
		ns := rec.Now()
		if err := sup.Step(); err != nil {
			return 0, fmt.Errorf("online step: %w", err)
		}
		rec.Record("bench_step", 0, trackBenchStep, ns, int64(sup.Version()))
		if stepMs != nil {
			*stepMs = append(*stepMs, float64(time.Since(t0))/1e6)
		}
	}
	return time.Since(start), nil
}

// ladder finds goodput on the rate ladder in trials: short open-loop
// windows at one rung that pass or fail. The first trials bisect the ladder
// to find the knee (rung 0, the low rate, is taken as met; the lo phase
// checks it). Every later trial is a step of a staircase from there: one
// rung up after a pass, one down after a failure. A staircase hovers about
// the rung that passes half its trials, and goodput is the mean rung it
// visited. The host's speed drifts over seconds, so a bisection alone would
// decide each rung on one moment of it; the staircase's trials spread over
// the rounds sample the whole run as the other phases do. A run always
// makes rounds × trials trials.
type ladder struct {
	lo, hi int   // bisection: rung lo passed, rung hi failed
	rung   int   // staircase position
	trials []int // rung of every staircase trial
	log    []string
}

func rungRate(w workload, rung int) float64 { return w.lo * math.Pow(ladderStep, float64(rung)) }

// next runs the next trial for dur.
func (g *ladder) next(b *bench, t target, dur time.Duration) {
	if g.hi-g.lo > 1 {
		mid := (g.lo + g.hi) / 2
		if b.trial(t, mid, dur, g) {
			g.lo = mid
		} else {
			g.hi = mid
		}
		g.rung = g.lo
		return
	}
	g.trials = append(g.trials, g.rung)
	if b.trial(t, g.rung, dur, g) {
		g.rung = min(g.rung+1, ladderRungs-1)
	} else {
		g.rung = max(g.rung-1, 0)
	}
}

// goodput is the rate at the mean staircase rung, the up-down estimate of
// the rate that passes half its trials. The mean, unlike a median rung,
// is not rounded to the ladder's 5 % steps.
func (g *ladder) goodput(w workload) float64 {
	rungs := make([]float64, len(g.trials))
	for i, r := range g.trials {
		rungs[i] = float64(r)
	}
	return w.lo * math.Pow(ladderStep, mean(rungs))
}

// backlogCap is the outstanding count a trial at rate may leave at the end
// of its schedule: the lanes plus the requests the server receives within
// the latency limit. In a steady state rate × latency requests are in
// flight, so a cap of lanes alone would fail every rate above
// lanes / latency however short the queue stays; only a backlog the server
// cannot clear within the limit is growth.
func (b *bench) backlogCap(rate float64) int64 {
	return int64(b.wl.lanes()) + int64(rate*b.wl.limitMs/1000)
}

// trial offers a rung's rate for dur. It starts on an idle server, because
// openLoop returns only once every request it sent has ended, so trials
// are independent: a host stall near the knee fails its own trial, not the
// ones after it. A trial passes when its p90 is within the latency limit,
// at most 0.1 % of its requests failed and its backlog is within
// backlogCap.
func (b *bench) trial(t target, rung int, dur time.Duration, g *ladder) bool {
	rate := rungRate(b.wl, rung)
	p := b.openLoop(t, rate, dur, nil)
	b.account(p, true)
	fails := p.refused + p.errs + p.bad
	pass := quantile(p.lat, 0.9) <= b.wl.limitMs && float64(fails) <= 0.001*float64(p.sent) && p.backlog <= b.backlogCap(rate)
	mark := "-"
	if pass {
		mark = "+"
	}
	g.log = append(g.log, fmt.Sprintf("%d%s", rung, mark))
	return pass
}

// frac returns a share of the run budget.
func (b *bench) frac(f float64) time.Duration {
	return time.Duration(f * float64(b.budget))
}

// rounds is how many times the lo, sat, hi and goodput slices alternate
// within a run, so each phase samples the whole run instead of one stretch
// of it.
const rounds = 6

// Shares of the run budget per phase, each split over the rounds.
const (
	loShare      = 0.12
	satShare     = 0.25
	hiShare      = 0.18
	goodputShare = 0.36
)

// measurement is the merged outcome of the alternating phases.
type measurement struct {
	lo, sat, hi *phase
	satAlloc    float64       // heap bytes allocated during the sat slices
	trainTime   time.Duration // wall time of the training slices
	trainImages int
	trainLoss   []float64 // loss of each training slice
	goodput     float64   // req/s at the staircase's mean rung
}

// alternate runs `rounds` rounds of lo, sat and hi slices, goodput trials
// and a training slice. On train-serve the training slice is a share of the
// fixed Step count, served at the low rate, and it is the lo slice. On the
// serving workloads it trains a share of the set-up images on a second
// machine with nothing else running, so train_img_s samples the whole run.
func (b *bench) alternate(e *env, t target) (*measurement, error) {
	m := &measurement{lo: &phase{}, sat: &phase{}, hi: &phase{}}
	g := &ladder{lo: 0, hi: ladderRungs}
	steps := b.wl.stepCount(b.budget)
	var (
		trainer *core.Accelerator
		train   []nn.Sample
	)
	if !b.wl.online {
		var err error
		if trainer, err = freshMachine(b.wl.network, b.seed); err != nil {
			return nil, err
		}
		train = dataset.Generate(b.wl.trainImages, dataset.DefaultOptions(b.wl.flat()), b.seed)
	}
	for r := range rounds {
		if b.wl.online {
			n := steps*(r+1)/rounds - steps*r/rounds
			lo, d, err := b.trainSlice(e, t, n, nil)
			if err != nil {
				return nil, err
			}
			m.lo.add(lo)
			m.trainTime += d
			m.trainImages += n * roundImages
			m.trainLoss = append(m.trainLoss, e.reg.Snapshot().Gauges["online_train_loss"])
		} else {
			m.lo.add(b.validSlice(t, b.wl.lo, b.frac(loShare/rounds), m, true))
			chunk := train[len(train)*r/rounds : len(train)*(r+1)/rounds]
			t0 := time.Now()
			rep, err := trainer.Train(chunk, trainBatch, trainLR)
			if err != nil {
				return nil, fmt.Errorf("train: %w", err)
			}
			m.trainTime += time.Since(t0)
			m.trainImages += len(chunk)
			m.trainLoss = append(m.trainLoss, rep.MeanLoss)
		}

		before := readRT()
		sat := b.closedLoop(t, b.wl.lanes(), b.frac(satShare/rounds))
		m.satAlloc += readRT().delta(before, rtAllocBytes)
		m.sat.add(sat)

		m.hi.add(b.validSlice(t, b.wl.hi, b.frac(hiShare/rounds), m, false))
		for range b.wl.trials {
			g.next(b, t, b.frac(goodputShare/rounds/float64(b.wl.trials)))
		}
	}
	m.goodput = g.goodput(b.wl)
	fmt.Printf("# goodput trials (rung, +pass/-fail): %s\n", strings.Join(g.log, " "))
	for _, p := range []*phase{m.lo, m.sat, m.hi} {
		b.account(p, false)
	}
	if m.sat.ok == 0 {
		return nil, fmt.Errorf("saturation phase completed no request")
	}
	return m, nil
}

// minLateSamples is how many sends the lateness guard needs before it
// judges: a p99 over fewer is one host hiccup.
const minLateSamples = 1000

// retryShare bounds the time spent re-measuring discarded slices, as a
// share of the run budget.
const retryShare = 0.2

// validSlice measures one open-loop slice until the run stays valid with it
// included: the generator's p99 lateness over every accepted lo and hi
// send stays within the p50 low-rate latency, and no backlog beyond the
// lane count was left at the slice's end. An invalid slice is discarded
// (its responses are still bit-checked, its sends and failures still
// counted) and measured again while the retry budget lasts; after that it
// is kept and the run is flagged invalid.
func (b *bench) validSlice(t target, rate float64, dur time.Duration, m *measurement, isLo bool) *phase {
	for {
		p := b.openLoop(t, rate, dur, nil)
		lo := m.lo.lat
		if isLo {
			lo = append(append([]float64(nil), lo...), p.lat...)
		}
		p50 := quantile(lo, 0.5)
		lateAll := append(append(append([]float64(nil), m.lo.late...), m.hi.late...), p.late...)
		late := quantile(lateAll, 0.99)
		var why string
		switch {
		case len(lateAll) >= minLateSamples && late > p50:
			why = fmt.Sprintf("load generator p99 lateness %.3f ms exceeds p50_ms_lo %.3f ms", late, p50)
		case p.backlog > int64(b.wl.lanes()):
			why = fmt.Sprintf("%d requests outstanding at the end of the slice (cap %d)", p.backlog, b.wl.lanes())
		default:
			return p
		}
		if b.retried+dur > b.frac(retryShare) {
			if b.invalid == "" {
				b.invalid = fmt.Sprintf("%.0f req/s slice: %s", rate, why)
			}
			return p
		}
		b.account(p, false) // a discarded slice's sends and failures still count
		b.retried += dur
		b.discarded++
		fmt.Printf("# discarded %.0f req/s slice: %s\n", rate, why)
	}
}

// runMeasured is the untraced run: every end-to-end metric.
func (b *bench) runMeasured() (map[string]metric, error) {
	e, setupS, err := b.setupMedian(nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	runtime.GC()
	liveMB := readRT().value(rtHeapLive) / (1 << 20)

	t := target{srv: e.srv}
	m, err := b.alternate(e, t)
	if err != nil {
		return nil, err
	}
	late := quantile(append(append([]float64(nil), m.lo.late...), m.hi.late...), 0.99)
	fmt.Printf("# validity: gen_late_p99=%.3fms p50_ms_lo=%.3fms hi_backlog_max=%d discarded_slices=%d\n",
		late, quantile(m.lo.lat, 0.5), m.hi.backlog, b.discarded)
	if b.invalid == "" && late > quantile(m.lo.lat, 0.5) {
		b.invalid = fmt.Sprintf("load generator p99 lateness %.3f ms exceeds p50_ms_lo %.3f ms", late, quantile(m.lo.lat, 0.5))
	}
	if b.invalid != "" {
		fmt.Printf("# INVALID run (%s): discard these figures\n", b.invalid)
	}

	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"sat_rps":          {float64(m.sat.ok) / m.sat.elapsed.Seconds(), "req/s"},
		"goodput_rps":      {m.goodput, "req/s"},
		"p50_ms_lo":        {median(m.lo.sliceP50), "ms"},
		"p90_ms_lo":        {median(m.lo.sliceP90), "ms"},
		"p50_ms_hi":        {median(m.hi.sliceP50), "ms"},
		"p90_ms_hi":        {median(m.hi.sliceP90), "ms"},
		"alloc_kb_per_req": {m.satAlloc / float64(m.sat.ok) / 1024, "KiB"},
		"live_heap_mb":     {liveMB, "MiB"},
		"train_img_s":      {float64(m.trainImages) / m.trainTime.Seconds(), "img/s"},
		"train_loss":       {mean(m.trainLoss), "loss"},
	}, nil
}
