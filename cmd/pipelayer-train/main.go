// Command pipelayer-train trains the Figure 13 resolution-study networks on
// the synthetic digit dataset and prints the resolution/accuracy trade-off
// (the paper's Figure 13), optionally followed by an analog-inference
// fidelity check that loads the trained network onto the PipeLayer
// accelerator and runs Test through its spike-coded crossbar datapath.
//
// Usage:
//
//	pipelayer-train                 # full study
//	pipelayer-train -quick          # smaller dataset/epochs
//	pipelayer-train -machine        # additionally verify analog inference
//	pipelayer-train -machine -checkpoint ckpt.plkp   # crash-safe resume
//	pipelayer-train -machine -fault-stuck-off 1e-4   # faulty crossbars
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"pipelayer/internal/checkpoint"
	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/experiments"
	"pipelayer/internal/fault"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/parallel"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
)

// trainTrack is the flight-recorder lane for the training loop's spans
// (track 0 stays reserved for request-scoped serving traces).
const trainTrack uint64 = 1

func main() {
	quick := flag.Bool("quick", false, "smaller dataset and fewer epochs")
	machine := flag.Bool("machine", false, "run analog-machine fidelity check after training")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "worker pool size for the parallel compute backend (0 = PIPELAYER_WORKERS or GOMAXPROCS, 1 = serial); results are bit-identical at every size")
	metricsPath := flag.String("metrics", "", "write a JSON telemetry snapshot to this path")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /metrics on this address (e.g. localhost:6060)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file for the -machine training loop: saved atomically after every epoch and auto-resumed at startup")
	traceOut := flag.String("trace-out", "", "enable the flight recorder for the -machine loop and write a Chrome trace_event JSON (Perfetto-loadable) to this path")
	traceDepth := flag.Int("trace-depth", 1, "tracing depth: 0 per-epoch spans only, 1 adds eval and checkpoint spans")
	faultCfg := fault.RegisterFlags(flag.CommandLine)
	flag.Parse()

	parallel.SetWorkers(*workers)

	var reg *telemetry.Registry
	if *metricsPath != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		parallel.Default().AttachMetrics(reg)
	}
	var rec *flight.Recorder
	if *traceOut != "" {
		rec = flight.New(flight.Config{})
		rec.SetTrackName(trainTrack, "train")
	}
	if *pprofAddr != "" {
		bound, shutdown, err := telemetry.StartPprof(*pprofAddr, reg, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer shutdown()
		fmt.Printf("pprof: http://%s/debug/pprof (metrics at /metrics)\n", bound)
	}

	cfg := experiments.DefaultFigure13Config()
	cfg.Seed = *seed
	if *quick {
		cfg.TrainSamples, cfg.TestSamples, cfg.Epochs = 300, 150, 3
	}

	fmt.Println("Training the Figure 13 study networks on the synthetic digit task")
	fmt.Printf("train=%d test=%d epochs=%d batch=%d lr=%g seed=%d\n\n",
		cfg.TrainSamples, cfg.TestSamples, cfg.Epochs, cfg.Batch, cfg.LearningRate, cfg.Seed)
	fmt.Println(experiments.Figure13(cfg).Render())

	if *machine {
		fmt.Println("Analog-machine fidelity check (16-bit weights, spike-coded inputs)")
		rng := rand.New(rand.NewSource(cfg.Seed))
		spec := networks.Mnist0()
		net := networks.BuildTrainable(spec, rng)
		train, test := dataset.TrainTest(cfg.TrainSamples, cfg.TestSamples, dataset.DefaultOptions(false), cfg.Seed)
		// Crash-safe resume: a valid checkpoint restores the weights and the
		// epoch to continue from; a corrupt one is a hard error (never
		// silently retrained over), and none at all is a cold start.
		startEpoch := 0
		if *ckptPath != "" {
			ep, ok, err := checkpoint.Resume(*ckptPath, net)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if ok {
				startEpoch = ep
				fmt.Printf("  resumed from %s at epoch %d\n", *ckptPath, ep)
			}
		}
		// Plain SGD through the solver (μ = λ = 0 makes Step identical to
		// Network.ApplyUpdate) so an observer can publish per-epoch stats.
		solver := nn.NewSolver(0.05, 0, 0)
		if reg != nil {
			solver.Observer = &telemetry.EpochRecorder{Registry: reg}
		}
		for e := startEpoch; e < cfg.Epochs; e++ {
			et0 := rec.Now()
			loss := solver.TrainEpoch(net, train, cfg.Batch)
			rec.Record("train_epoch", 0, trainTrack, et0, int64(e+1))
			fmt.Printf("  epoch %d: loss %.4f\n", e+1, loss)
			if *ckptPath != "" {
				ct0 := rec.Now()
				if err := checkpoint.SaveFile(*ckptPath, net, e+1); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if *traceDepth >= 1 {
					rec.Record("train_checkpoint", 0, trainTrack, ct0, int64(e+1))
				}
			}
		}
		vt0 := rec.Now()
		floatAcc := net.Accuracy(test)
		if *traceDepth >= 1 {
			rec.Record("train_eval", 0, trainTrack, vt0, int64(len(test)))
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
		at0 := rec.Now()
		analogAcc, err := analogAccuracy(spec, net, inj, test)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *traceDepth >= 1 {
			rec.Record("train_eval", 0, trainTrack, at0, int64(len(test)))
		}
		fmt.Printf("  float accuracy : %.3f\n", floatAcc)
		fmt.Printf("  analog accuracy: %.3f (PipeLayer accelerator, quantized crossbars)\n", analogAcc)
		if inj != nil {
			c := inj.Counters()
			fmt.Printf("  faults         : injected=%d remapped=%d degraded=%d corrupt=%d\n",
				c.Injected, c.Remapped, c.Degraded, c.Corrupted)
		}
	}

	if rec != nil {
		if err := rec.WriteChromeFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s (open at https://ui.perfetto.dev)\n", rec.Len(), *traceOut)
	}

	if *metricsPath != "" {
		if err := reg.WriteJSONFile(*metricsPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry snapshot written to %s\n", *metricsPath)
	}
}

// analogAccuracy loads net onto a fresh accelerator through the Section 5.2
// sequence, with inj (nil for the ideal device) wired into every crossbar,
// and returns the accuracy Test measures on the samples.
func analogAccuracy(spec networks.Spec, net *nn.Network, inj *fault.Injector, test []nn.Sample) (float64, error) {
	acc := core.New(energy.DefaultModel())
	if err := acc.TopologySet(spec, 1); err != nil {
		return 0, err
	}
	if err := acc.SetFaults(inj); err != nil {
		return 0, err
	}
	if err := acc.WeightLoad(net, nil); err != nil {
		return 0, err
	}
	rep, err := acc.Test(test)
	return rep.Accuracy, err
}
