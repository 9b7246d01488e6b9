// Command pipelayer-serve trains a network on the PipeLayer machine and
// serves it over HTTP with the batching inference scheduler: concurrent
// single-sample POST /predict requests coalesce into multi-column crossbar
// readouts while every response stays bit-identical to the serial path.
//
// Usage:
//
//	pipelayer-serve                          # train Mnist-A, listen on :8093
//	pipelayer-serve -net Mnist-0 -replicas 2 # serve the CNN with two replicas
//	pipelayer-serve -net Mnist-0 -shards 3   # pipeline the CNN across 3 layer shards
//	pipelayer-serve -smoke 200               # offline load test, bit-checked against serial inference
//	pipelayer-serve -list                    # servable networks
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/fault"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/parallel"
	"pipelayer/internal/serve"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

func main() {
	addr := flag.String("addr", "localhost:8093", "HTTP listen address")
	netName := flag.String("net", "Mnist-A", "network to train and serve (see -list)")
	list := flag.Bool("list", false, "list servable networks")
	trainImages := flag.Int("train-images", 300, "synthetic training samples")
	testImages := flag.Int("test-images", 150, "synthetic held-out samples for the accuracy report")
	epochs := flag.Int("epochs", 2, "training epochs before serving")
	batch := flag.Int("batch", 10, "training batch size")
	lr := flag.Float64("lr", 0.05, "training learning rate")
	seed := flag.Int64("seed", 1, "random seed for weights and data")
	replicas := flag.Int("replicas", 0, "workers (batches in flight) and the total replica budget: one replica per shard, the rest to the costliest shard per replica (0 = one per shard)")
	shards := flag.Int("shards", 0, "split the network into this many contiguous layer-range pipeline shards (0/1 = the whole network as one shard); outputs stay bit-identical")
	maxBatch := flag.Int("max-batch", 16, "largest coalesced inference batch")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "batching window for a partial batch")
	queueCap := flag.Int("queue", 64, "request queue depth (full queue → 503)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline (0 = none)")
	smoke := flag.Int("smoke", 0, "run an offline load test with this many requests instead of listening")
	onlineMode := flag.Bool("online", false, "train-while-serve: keep training in the background and hot-swap promoted weight versions into serving")
	onlineDir := flag.String("online-dir", "checkpoints", "versioned checkpoint directory for -online (resumes from the newest valid checkpoint)")
	snapshotEvery := flag.Int("snapshot-every", 1, "-online: snapshot a candidate version every N training rounds")
	roundImages := flag.Int("round-images", 0, "-online: synthetic samples per training round (0 = 4×batch)")
	tolerance := flag.Float64("tolerance", 0.02, "-online: allowed eval-accuracy drop before a candidate is rolled back")
	maxRegressions := flag.Int("max-regressions", 3, "-online: consecutive rollbacks before promotion pins")
	keepCheckpoints := flag.Int("keep-checkpoints", 0, "-online: prune the store to the newest N versions (0 = keep all)")
	workers := flag.Int("workers", 0, "worker pool size for the parallel compute backend (0 = PIPELAYER_WORKERS or GOMAXPROCS, 1 = serial); results are bit-identical at every size")
	metricsPath := flag.String("metrics", "", "write a JSON telemetry snapshot to this path on exit")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /metrics on this address (e.g. localhost:6060)")
	traceOut := flag.String("trace-out", "", "enable the flight recorder and write a Chrome trace_event JSON (Perfetto-loadable) to this path on exit")
	traceDepth := flag.Int("trace-depth", 1, "tracing depth: 0 request stages only, 1 adds per-layer forward spans, 2 adds per-readout crossbar spans")
	faultCfg := fault.RegisterFlags(flag.CommandLine)
	flag.Parse()

	parallel.SetWorkers(*workers)

	if *list {
		for _, s := range servable() {
			fmt.Printf("  %-8s L=%2d  weights=%d\n", s.Name, s.WeightedLayers(), s.TotalWeights())
		}
		return
	}

	var spec networks.Spec
	found := false
	for _, s := range servable() {
		if strings.EqualFold(s.Name, *netName) {
			spec, found = s, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown network %q (use -list)\n", *netName)
		os.Exit(1)
	}

	var reg *telemetry.Registry
	if *metricsPath != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		parallel.Default().AttachMetrics(reg)
	}
	var rec *flight.Recorder
	if *traceOut != "" {
		rec = flight.New(flight.Config{})
	}
	if *pprofAddr != "" {
		bound, shutdown, err := telemetry.StartPprof(*pprofAddr, reg, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Printf("pprof     : http://%s/debug/pprof (metrics at /metrics)\n", bound)
	}

	var inj *fault.Injector
	if faultCfg.Enabled() {
		var err error
		if inj, err = fault.New(*faultCfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if reg != nil {
			inj.AttachMetrics(reg)
		}
	}

	cfg := serve.Config{
		Replicas: *replicas, MaxBatch: *maxBatch, MaxWait: *maxWait,
		QueueCap: *queueCap, Shards: *shards, Metrics: reg,
		Flight: rec, TraceDepth: *traceDepth,
	}

	if *onlineMode {
		tc := trainConfig{
			trainImages: *trainImages, testImages: *testImages,
			epochs: *epochs, batch: *batch, lr: *lr, seed: *seed,
		}
		of := onlineFlags{
			dir: *onlineDir, snapshotEvery: *snapshotEvery, roundImages: *roundImages,
			tolerance: *tolerance, maxRegressions: *maxRegressions, keepCheckpoints: *keepCheckpoints,
		}
		if err := runOnline(spec, cfg, of, tc, reg, rec, inj, *addr, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		writeArtifacts(rec, *traceOut, reg, *metricsPath)
		return
	}

	acc, test, err := trainMachine(spec, inj, reg, trainConfig{
		trainImages: *trainImages, testImages: *testImages,
		epochs: *epochs, batch: *batch, lr: *lr, seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *smoke > 0 {
		if err := runSmoke(acc, cfg, test, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		if err := listen(acc, cfg, *addr, *timeout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	writeArtifacts(rec, *traceOut, reg, *metricsPath)
}

// writeArtifacts flushes the optional exit artifacts: the Perfetto trace and
// the telemetry snapshot.
func writeArtifacts(rec *flight.Recorder, traceOut string, reg *telemetry.Registry, metricsPath string) {
	if rec != nil {
		if err := rec.WriteChromeFile(traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace     : %d spans written to %s (open at https://ui.perfetto.dev)\n", rec.Len(), traceOut)
		if d := rec.Dropped(); d > 0 {
			fmt.Printf("trace     : ring overwrote %d oldest spans (lower -trace-depth to keep more requests)\n", d)
		}
	}

	if metricsPath != "" {
		if err := reg.WriteJSONFile(metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry : snapshot written to %s\n", metricsPath)
	}
}

// servable is the subset of evaluation networks small enough to train
// functionally at startup (the ImageNet-scale topologies are simulated
// analytically by pipelayer-sim, not trained end to end).
func servable() []networks.Spec {
	return []networks.Spec{networks.MnistA(), networks.MnistB(), networks.MnistC(), networks.Mnist0()}
}

type trainConfig struct {
	trainImages, testImages, epochs, batch int
	lr                                     float64
	seed                                   int64
}

// trainMachine builds the accelerator, trains it on the synthetic digit task
// and reports held-out accuracy; the returned samples feed the smoke test.
func trainMachine(spec networks.Spec, inj *fault.Injector, reg *telemetry.Registry, tc trainConfig) (*core.Accelerator, []nn.Sample, error) {
	acc := core.New(energy.DefaultModel())
	if inj != nil {
		if err := acc.SetFaults(inj); err != nil {
			return nil, nil, err
		}
	}
	if err := acc.TopologySet(spec, 1); err != nil {
		return nil, nil, err
	}
	if reg != nil {
		acc.SetMetrics(reg)
	}
	if err := acc.WeightLoad(nil, rand.New(rand.NewSource(tc.seed))); err != nil {
		return nil, nil, err
	}
	flat := spec.Layers[0].Kind == mapping.KindFC
	train, test := dataset.TrainTest(tc.trainImages, tc.testImages, dataset.DefaultOptions(flat), tc.seed)

	fmt.Printf("network   : %s (%d weighted layers, %d weights)\n", spec.Name, spec.WeightedLayers(), spec.TotalWeights())
	start := time.Now()
	for e := 1; e <= tc.epochs; e++ {
		rep, err := acc.Train(train, tc.batch, tc.lr)
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("train     : epoch %d/%d loss %.4f\n", e, tc.epochs, rep.MeanLoss)
	}
	rep, err := acc.Test(test)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("trained   : accuracy %.1f%% on %d held-out samples (%.1fs)\n",
		100*rep.Accuracy, len(test), time.Since(start).Seconds())
	return acc, test, nil
}

// Read limits of the HTTP API. A client that trickles its request line,
// headers or body must not hold a connection and a goroutine forever.
const (
	// maxReadHeader bounds the request line and headers.
	maxReadHeader = 5 * time.Second
	// defaultReadTimeout bounds the whole request read when -timeout is 0.
	defaultReadTimeout = 30 * time.Second
)

// newHTTPServer builds the server both serving modes listen on. The whole
// request must arrive within the per-request deadline (-timeout), or within
// defaultReadTimeout when there is none; the headers within maxReadHeader
// or that deadline, whichever is shorter.
func newHTTPServer(addr string, h http.Handler, timeout time.Duration) *http.Server {
	read := timeout
	if read <= 0 {
		read = defaultReadTimeout
	}
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: min(maxReadHeader, read), ReadTimeout: read}
}

// listen serves the HTTP API until SIGINT/SIGTERM, then drains.
func listen(acc *core.Accelerator, cfg serve.Config, addr string, timeout time.Duration) error {
	s, err := serve.New(acc, cfg)
	if err != nil {
		return err
	}
	srv := newHTTPServer(addr, s.Handler(timeout), timeout)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("serving   : http://%s/predict (healthz at /healthz), %d-element inputs\n", addr, s.InputSize())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if cerr := s.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "close after listen failure: %v\n", cerr)
		}
		return err
	case <-sig:
	}
	fmt.Println("draining  : stopping intake, flushing in-flight batches")
	if err := s.Close(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// smokeLanes bounds how many -smoke callers are in flight at once.
const smokeLanes = 1024

// runSmoke load-tests the scheduler offline. It computes every sample's
// serial Replica.Infer reference, fires n Predicts at a server whose queue
// holds all of them (at most smokeLanes in flight), and fails on any
// response that is not bit-identical to its reference. Throughput and the
// latency percentiles are measured from the calls.
func runSmoke(acc *core.Accelerator, cfg serve.Config, samples []nn.Sample, n int) error {
	if len(samples) == 0 {
		return fmt.Errorf("smoke: no samples")
	}
	ref, err := acc.NewReplica()
	if err != nil {
		return err
	}
	want := make([]*tensor.Tensor, len(samples))
	for i, sm := range samples {
		want[i] = ref.Infer(sm.Input)
	}
	cfg.QueueCap = max(cfg.WithDefaults().QueueCap, n)
	s, err := serve.New(acc, cfg)
	if err != nil {
		return err
	}

	ctx := context.Background()
	lat := make([]time.Duration, n)
	errs := make([]error, n)
	lanes := make(chan struct{}, smokeLanes)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		lanes <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-lanes; wg.Done() }()
			k := i % len(samples)
			t0 := time.Now()
			res, err := s.Predict(ctx, samples[k].Input)
			lat[i] = time.Since(t0)
			if err == nil && !bitIdentical(res, want[k]) {
				err = fmt.Errorf("response differs from the serial reference of sample %d", k)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := s.Close(); err != nil {
		return err
	}

	identical := 0
	var first error
	for i, err := range errs {
		if err == nil {
			identical++
		} else if first == nil {
			first = fmt.Errorf("smoke: request %d: %w", i, err)
		}
	}
	fmt.Printf("smoke     : %d of %d responses bit-identical to serial Replica.Infer\n", identical, n)
	if first != nil {
		return first
	}
	slices.Sort(lat)
	pct := func(p float64) float64 {
		return float64(lat[int(math.Ceil(p*float64(n)))-1]) / float64(time.Millisecond)
	}
	fmt.Printf("smoke     : %.0f req/s, p50 %.2f ms p90 %.2f ms p99 %.2f ms\n",
		float64(n)/elapsed.Seconds(), pct(0.50), pct(0.90), pct(0.99))

	if rec := cfg.Flight; rec.Enabled() {
		checked, err := verifySpanSums(rec)
		if err != nil {
			return err
		}
		fmt.Printf("smoke     : %d traced requests decompose exactly into queue+batch+compute spans\n", checked)
	}
	return nil
}

// bitIdentical reports whether a response carries exactly the reference's
// scores, compared by IEEE-754 bits, and their argmax.
func bitIdentical(res serve.Result, want *tensor.Tensor) bool {
	_, class := want.Max()
	return res.Scores != nil && tensor.Identical(res.Scores, want) && res.Class == class
}

// verifySpanSums checks the tracing contract on the recorded requests: each
// one's queue-wait + batch-wait + compute durations must sum exactly to its
// end-to-end serve_request span, because adjacent spans share the one
// reading of their boundary. Traces torn by ring-buffer overwrite (fewer
// than all four stages surviving) are skipped.
func verifySpanSums(rec *flight.Recorder) (int, error) {
	type stages struct {
		queue, batch, compute, e2e int64
		seen                       int
	}
	byTrace := map[uint64]*stages{}
	for _, e := range rec.Events() {
		if e.Trace == 0 || e.Track != flight.TrackRequests {
			continue
		}
		st := byTrace[e.Trace]
		if st == nil {
			st = &stages{}
			byTrace[e.Trace] = st
		}
		switch e.Name {
		case "serve_queue_wait":
			st.queue = e.Dur()
			st.seen++
		case "serve_batch_wait":
			st.batch = e.Dur()
			st.seen++
		case "serve_compute":
			st.compute = e.Dur()
			st.seen++
		case "serve_request":
			st.e2e = e.Dur()
			st.seen++
		}
	}
	checked := 0
	for tr, st := range byTrace {
		if st.seen != 4 {
			continue
		}
		if sum := st.queue + st.batch + st.compute; sum != st.e2e {
			return 0, fmt.Errorf("smoke: trace %d stage sum %dns differs from end-to-end %dns", tr, sum, st.e2e)
		}
		checked++
	}
	if checked == 0 {
		return 0, fmt.Errorf("smoke: tracing enabled but no complete request trace was recorded")
	}
	return checked, nil
}
