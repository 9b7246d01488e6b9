package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
)

// InputBitsConfig controls the input-resolution ablation.
type InputBitsConfig struct {
	TrainSamples, TestSamples int
	Epochs, Batch             int
	LearningRate              float64
	Seed                      int64
	// Bits are the input spike resolutions evaluated.
	Bits []int
}

// DefaultInputBitsConfig evaluates the spike-slot counts around the
// paper's 16-bit default.
func DefaultInputBitsConfig() InputBitsConfig {
	return InputBitsConfig{
		TrainSamples: 600, TestSamples: 250, Epochs: 4, Batch: 10,
		LearningRate: 0.05, Seed: 6,
		Bits: []int{2, 4, 8, 16},
	}
}

// InputBitsRow is one resolution's outcome.
type InputBitsRow struct {
	Bits int
	// Accuracy is the analog-machine accuracy at this input resolution.
	Accuracy float64
	// CycleSeconds is the logical cycle time with this many spike slots.
	CycleSeconds float64
}

// InputBitsResult is the spike-input resolution ablation: more spike slots
// per value mean better input fidelity but a linearly longer array pass —
// the trade the paper's Section 1 accepts because the pipeline amortizes
// the extra slots ("the drawback is offset by the pipelined architecture").
type InputBitsResult struct {
	Network  string
	FloatAcc float64
	Rows     []InputBitsRow
}

// InputBitsStudy trains Mnist-0 once in software, then loads it onto an
// accelerator at each input resolution and reads the analog accuracy from
// Test, alongside the cycle-time the device model assigns to that many
// spike slots.
func InputBitsStudy(s Setup, cfg InputBitsConfig) InputBitsResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	spec := networks.Mnist0()
	net := networks.BuildTrainable(spec, rng)
	train, test := dataset.TrainTest(cfg.TrainSamples, cfg.TestSamples, dataset.DefaultOptions(false), cfg.Seed)
	for e := 0; e < cfg.Epochs; e++ {
		net.TrainEpoch(train, cfg.Batch, cfg.LearningRate)
	}
	res := InputBitsResult{Network: spec.Name, FloatAcc: net.Accuracy(test)}
	// Hold the mapping fixed (planned at the default resolution) so the
	// sweep isolates the spike-slot count rather than re-balancing G.
	plans := s.Model.BalancedPlans(spec.Layers, mapping.DefaultArray, 1)
	for _, bits := range cfg.Bits {
		model := s.Model
		model.SpikeBits = bits
		a, err := core.NewFromSnapshot(model, spec, 1, net)
		if err != nil {
			panic(err)
		}
		rep, err := a.Test(test)
		if err != nil {
			panic(err)
		}
		res.Rows = append(res.Rows, InputBitsRow{
			Bits:         bits,
			Accuracy:     rep.Accuracy,
			CycleSeconds: model.CycleTime(plans),
		})
	}
	return res
}

// Render formats the study.
func (r InputBitsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: Input Spike Resolution (%s, float accuracy %.3f)\n", r.Network, r.FloatAcc)
	fmt.Fprintf(&b, "  %-6s %10s %14s\n", "bits", "accuracy", "cycle time")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-6d %10.3f %12.3gs\n", row.Bits, row.Accuracy, row.CycleSeconds)
	}
	return b.String()
}
