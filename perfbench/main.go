// Command perfbench is the repository benchmark. One invocation runs one
// workload against the serving, sharding and online-training layers through
// their public Go APIs, bit-checks every response against the serial
// Replica.Infer reference, and prints the metrics BENCHMARK.json names:
// the end-to-end set with -trace 0, the per-layer set with -trace 1.
//
//	bash perfbench/run.sh --workload mlp-serve --seed 7 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines above it are the
// human-readable report (environment stamp, metric table, per-layer self-time
// table). A bit mismatch exits 1. A run whose load generator fell behind or
// whose hi-rate backlog grew, after its retry budget, is flagged INVALID in
// the report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pipelayer/internal/benchscenario"
)

// maxProcs caps GOMAXPROCS so the offered rates, which are fixed numbers,
// load the same number of cores on every host the benchmark runs on.
const maxProcs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Float64("seconds", 30, "measured seconds per run (set-up excluded)")
		trace   = flag.Int("trace", 0, "1: traced run that reports the per-layer metrics and writes a trace")
		root    = flag.String("root", ".", "checkout root; scratch files and traces go under <root>/.bench_build")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	scratch := filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := &bench{
		ctx:     context.Background(),
		wl:      wl,
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		scratch: scratch,
		traces:  filepath.Join(*root, ".bench_build", "traces"),
		ver:     newVerifier(),
	}
	env := benchscenario.CollectEnv()
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s calib_mflops=%.0f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), env.Build.GoVersion, env.Build.Commit, env.CalibMFLOPS)

	var (
		metrics map[string]metric
		err     error
	)
	if b.traced {
		metrics, err = b.runTraced()
	} else {
		metrics, err = b.runMeasured()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	mismatches := b.ver.mismatches.Load()
	res := result{
		Correct:   mismatches == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   metrics,
	}
	fmt.Printf("# output_digest=%s verified=%d mismatched=%d fail_frac=%.6f (%d/%d)\n",
		b.ver.digest(), b.ver.verified.Load(), mismatches,
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	printTable(metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printTable(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
