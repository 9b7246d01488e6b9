package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/fault"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/telemetry"
)

// FaultSweepConfig controls the accuracy-vs-fault-density robustness study.
type FaultSweepConfig struct {
	TrainSamples, TestSamples int
	Epochs, Batch             int
	LearningRate              float64
	Hidden                    int
	Seed                      int64
	// Densities are the stuck-off cell probabilities swept; stuck-on runs
	// at half each value (ON defects are rarer in practice).
	Densities []float64
	// Spares is the redundant-column budget per array in the repairing modes.
	Spares int
	// Drift/Refresh optionally exercise the temporal fault model on top of
	// the stuck cells.
	Drift   float64
	Refresh int
}

// DefaultFaultSweepConfig covers the density range where spare-column repair
// transitions from fully hiding the damage to exhausted.
func DefaultFaultSweepConfig() FaultSweepConfig {
	return FaultSweepConfig{
		TrainSamples: 240, TestSamples: 120, Epochs: 2, Batch: 8,
		LearningRate: 0.08, Hidden: 32, Seed: 11,
		Densities: []float64{0, 1e-5, 1e-4, 5e-4, 2e-3},
		Spares:    6,
	}
}

// FaultSweepRow is one tolerance mode's accuracy series over the densities.
type FaultSweepRow struct {
	Mode       string           `json:"mode"`
	Accuracies []float64        `json:"accuracies"`
	Counters   []fault.Counters `json:"counters"`
}

// FaultSweepProvenance pins a BENCH_fault.json artifact to the build and
// configuration that produced it, so two sweeps can be checked for
// matching configs before they are compared.
type FaultSweepProvenance struct {
	telemetry.BuildInfo
	Workers int   `json:"workers"`
	Seed    int64 `json:"seed"`
}

// FaultSweepResult is the robustness study: accelerator training accuracy as
// a function of stuck-cell density, with the fault-tolerance mechanisms
// switched on incrementally.
type FaultSweepResult struct {
	// Provenance is stamped via Stamp before the artifact is written; a
	// result that was never stamped marshals without the field.
	Provenance *FaultSweepProvenance `json:"provenance,omitempty"`
	Densities  []float64             `json:"densities"`
	// BaselineAcc is the fault-free accelerator's accuracy (nil injector).
	BaselineAcc float64         `json:"baseline_acc"`
	Rows        []FaultSweepRow `json:"rows"`
}

// Stamp records the artifact's provenance: commit, Go version, RFC3339
// timestamp, the worker-pool size the sweep ran with, and its seed.
func (r *FaultSweepResult) Stamp(workers int, seed int64) {
	r.Provenance = &FaultSweepProvenance{
		BuildInfo: telemetry.CollectBuildInfo(),
		Workers:   workers,
		Seed:      seed,
	}
}

// faultSweepModes are the tolerance configurations compared: bare silicon,
// spare-column remapping only, and remapping with the digital-emulation
// fallback once spares run out.
var faultSweepModes = []struct {
	name    string
	spares  func(cfg FaultSweepConfig) int
	degrade bool
}{
	{"none", func(FaultSweepConfig) int { return 0 }, false},
	{"remap", func(cfg FaultSweepConfig) int { return cfg.Spares }, false},
	{"remap+degrade", func(cfg FaultSweepConfig) int { return cfg.Spares }, true},
}

// FaultSweep trains a compact MLP end-to-end on the accelerator for every
// (density, mode) point and reports test accuracy plus the injector's event
// counters. The baseline runs with no injector at all, so the zero-density
// points double as a bit-exactness check of the fault path (they must equal
// the baseline exactly — the fault model is inert at density 0).
func FaultSweep(cfg FaultSweepConfig) FaultSweepResult {
	spec := networks.Spec{
		Name: "fault-mlp", InC: 1, InH: 28, InW: 28, Classes: 10,
		Layers: []mapping.Layer{
			mapping.FC("fc1", 784, cfg.Hidden),
			mapping.FC("fc2", cfg.Hidden, 10),
		},
	}
	train, test := dataset.TrainTest(cfg.TrainSamples, cfg.TestSamples, dataset.DefaultOptions(true), cfg.Seed)

	run := func(inj *fault.Injector) float64 {
		a := core.New(energy.DefaultModel())
		if inj != nil {
			if err := a.SetFaults(inj); err != nil {
				panic(err)
			}
		}
		if err := a.TopologySet(spec, 1); err != nil {
			panic(err)
		}
		if err := a.WeightLoad(nil, rand.New(rand.NewSource(cfg.Seed))); err != nil {
			panic(err)
		}
		for e := 0; e < cfg.Epochs; e++ {
			if _, err := a.Train(train, cfg.Batch, cfg.LearningRate); err != nil {
				panic(err)
			}
		}
		rep, err := a.Test(test)
		if err != nil {
			panic(err)
		}
		return rep.Accuracy
	}

	res := FaultSweepResult{Densities: cfg.Densities, BaselineAcc: run(nil)}
	for _, mode := range faultSweepModes {
		row := FaultSweepRow{Mode: mode.name}
		for _, density := range cfg.Densities {
			inj := fault.MustNew(fault.Config{
				Seed:     cfg.Seed,
				StuckOff: density, StuckOn: density / 2,
				Spares: mode.spares(cfg), Degrade: mode.degrade,
				Drift: cfg.Drift, Refresh: cfg.Refresh,
			})
			row.Accuracies = append(row.Accuracies, run(inj))
			row.Counters = append(row.Counters, inj.Counters())
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render formats the sweep.
func (r FaultSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness: Accuracy vs. Stuck-Cell Density (baseline %.3f)\n", r.BaselineAcc)
	fmt.Fprintf(&b, "  %-14s", "Mode")
	for _, d := range r.Densities {
		fmt.Fprintf(&b, "  d=%-7.0e", d)
	}
	fmt.Fprintf(&b, "  %8s %8s %8s\n", "remapped", "degraded", "corrupt")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s", row.Mode)
		for _, acc := range row.Accuracies {
			fmt.Fprintf(&b, "  %9.3f", acc)
		}
		last := row.Counters[len(row.Counters)-1]
		fmt.Fprintf(&b, "  %8d %8d %8d\n", last.Remapped, last.Degraded, last.Corrupted)
	}
	return b.String()
}

// WriteJSON writes the sweep to path (0644) as indented JSON — the
// BENCH_fault.json artifact.
func (r FaultSweepResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
