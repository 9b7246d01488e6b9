// Command pipelayer-bench regenerates every table and figure of the paper's
// evaluation section and prints them in paper order. Use -fig13 to include
// the (training-heavy) resolution/accuracy study and -quick to shrink it.
// It is also the benchmark regression gate: -diff judges paired perfbench
// runs of a base commit and a change by BENCHMARK.json's bounds.
//
// Usage:
//
//	pipelayer-bench            # all analytic tables and figures
//	pipelayer-bench -fig13     # additionally train the Figure 13 networks
//	pipelayer-bench -fig13 -quick
//	pipelayer-bench -faults    # accuracy-vs-fault-density robustness sweep
//	pipelayer-bench -diff BASE_DIR HEAD_DIR   # gate <dir>/<workload>.jsonl perfbench runs
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/experiments"
	"pipelayer/internal/networks"
	"pipelayer/internal/parallel"
	"pipelayer/internal/pipeline"
	"pipelayer/internal/telemetry"
)

func main() {
	fig13 := flag.Bool("fig13", false, "run the Figure 13 resolution/accuracy study (trains five networks)")
	variation := flag.Bool("variation", false, "run the device-variation extension study (trains two networks)")
	inputBits := flag.Bool("inputbits", false, "run the input-spike-resolution ablation (trains one network)")
	quick := flag.Bool("quick", false, "shrink the training studies for a fast run")
	faults := flag.Bool("faults", false, "run the accuracy-vs-fault-density robustness sweep (trains on the accelerator per density and tolerance mode)")
	faultOut := flag.String("faultout", "BENCH_fault.json", "write the fault sweep results here (empty disables; only with -faults)")
	configPath := flag.String("config", "", "JSON file overriding the evaluation setup (see experiments.SetupOverrides)")
	workers := flag.Int("workers", 0, "worker pool size for the parallel compute backend (0 = PIPELAYER_WORKERS or GOMAXPROCS, 1 = serial); results are bit-identical at every size")
	telemetryPath := flag.String("telemetry", "BENCH_telemetry.json", "write the run's telemetry snapshot (stage spans + pipeline utilization) here; empty disables")
	metricsPath := flag.String("metrics", "", "write an additional JSON telemetry snapshot to this path")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /metrics on this address (e.g. localhost:6060)")
	diffBase := flag.String("diff", "", "gate paired perfbench runs: pipelayer-bench -diff BASE_DIR HEAD_DIR reads <dir>/<workload>.jsonl and judges the head runs against the base runs by "+benchmarkFile+"'s end-to-end bounds")
	flag.Parse()

	parallel.SetWorkers(*workers)

	if *diffBase != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: pipelayer-bench -diff BASE_DIR HEAD_DIR")
			os.Exit(2)
		}
		if err := runGate(benchmarkFile, *diffBase, flag.Arg(0), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var reg *telemetry.Registry
	if *telemetryPath != "" || *metricsPath != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		parallel.Default().AttachMetrics(reg)
	}
	if *pprofAddr != "" {
		bound, shutdown, err := telemetry.StartPprof(*pprofAddr, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Printf("pprof: http://%s/debug/pprof (metrics at /metrics)\n", bound)
	}

	setup := experiments.DefaultSetup()
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		setup, err = experiments.SetupFromJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Println("PipeLayer evaluation reproduction (HPCA 2017)")
	fmt.Printf("batch=%d images=%d array=%dx%d\n\n", setup.Batch, setup.Images, setup.Array.Rows, setup.Array.Cols)

	fmt.Println(experiments.Table1().Render())
	fmt.Println(experiments.Table2().Render())
	fmt.Println(experiments.Table3().Render())
	fmt.Println(experiments.Table5(setup).Render())
	fmt.Println(experiments.Figure7(5, setup.Batch).Render())
	fmt.Println(experiments.Figure15(setup).Render())
	fmt.Println(experiments.Figure16(setup).Render())
	fmt.Println(experiments.Figure17(setup).Render())
	fmt.Println(experiments.Figure18(setup).Render())
	fmt.Println(experiments.Section66(setup).Render())
	fmt.Println(experiments.ISAACComparison().Render())
	fmt.Println(experiments.BatchSweep(networks.AlexNet()).Render())
	fmt.Println(experiments.CriticalPath(setup, networks.VGG("D"), 1).Render())
	fmt.Println(experiments.EnergyBreakdown(setup).Render())

	if *fig13 {
		cfg := experiments.DefaultFigure13Config()
		if *quick {
			cfg.TrainSamples, cfg.TestSamples, cfg.Epochs = 300, 150, 3
		}
		fmt.Println(experiments.Figure13(cfg).Render())
	} else {
		fmt.Println("(Figure 13 skipped; pass -fig13 to train the resolution-study networks)")
	}

	if *variation {
		cfg := experiments.DefaultVariationConfig()
		if *quick {
			cfg.TrainSamples, cfg.TestSamples, cfg.Epochs = 300, 150, 3
		}
		fmt.Println(experiments.VariationStudy(cfg).Render())
	} else {
		fmt.Println("(device-variation study skipped; pass -variation to run it)")
	}

	if *faults {
		cfg := experiments.DefaultFaultSweepConfig()
		if *quick {
			cfg.TrainSamples, cfg.TestSamples, cfg.Epochs = 48, 32, 1
			cfg.Densities = []float64{0, 1e-5, 5e-4}
		}
		res := experiments.FaultSweep(cfg)
		fmt.Println(res.Render())
		if *faultOut != "" {
			res.Stamp(parallel.Workers(), cfg.Seed)
			if err := res.WriteJSON(*faultOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("fault sweep written to %s\n\n", *faultOut)
		}
	} else {
		fmt.Println("(fault robustness sweep skipped; pass -faults to run it)")
	}

	if *inputBits {
		cfg := experiments.DefaultInputBitsConfig()
		if *quick {
			cfg.TrainSamples, cfg.TestSamples, cfg.Epochs = 300, 150, 2
		}
		fmt.Println(experiments.InputBitsStudy(setup, cfg).Render())
	} else {
		fmt.Println("(input-resolution ablation skipped; pass -inputbits to run it)")
	}

	if reg != nil {
		if err := recordBenchTelemetry(reg, setup); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, path := range []string{*telemetryPath, *metricsPath} {
			if path == "" {
				continue
			}
			if err := reg.WriteJSONFile(path); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("telemetry snapshot written to %s\n", path)
		}
	}
}

// recordBenchTelemetry fills reg with the two halves of the benchmark's
// observability story: pipeline utilization from a cycle-accurate simulation
// of AlexNet-depth training at the evaluation batch size, and real stage
// spans plus weight-write counters from a short instrumented Mnist-A
// functional run.
func recordBenchTelemetry(reg *telemetry.Registry, setup experiments.Setup) error {
	acc := core.New(setup.Model)
	if err := acc.TopologySet(networks.MnistA(), 1); err != nil {
		return err
	}
	if err := acc.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
		return err
	}
	acc.SetMetrics(reg)
	train, _ := dataset.TrainTest(100, 1, dataset.DefaultOptions(true), 7)
	if _, err := acc.Train(train, 10, 0.05); err != nil {
		return err
	}

	// Recorded last so the utilization/buffer gauges describe the headline
	// AlexNet-depth pipelined schedule (gauges are last-write-wins; the
	// functional run above records its own small Mnist-A schedule).
	L := networks.AlexNet().WeightedLayers()
	res := pipeline.Simulate(pipeline.Config{L: L, B: setup.Batch, N: setup.Images, Pipelined: true, Training: true})
	res.Record(reg)
	return nil
}
