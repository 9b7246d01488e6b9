//go:build amd64 && !amd64.v3

// The accuracies below are the plain amd64 bits, like core's golden
// constants: targets that may fuse a multiply and an add into one rounding
// train to other weights, so the file builds only where the recorded
// arithmetic is the arithmetic that runs.

package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestFaultSweepGolden pins the accuracy-vs-stuck-cell-density sweep of a
// 784-32-10 MLP at three densities: the fault-free baseline and every
// (tolerance mode, density) point, and their FNV-1a digest over the
// float64 bits in baseline-then-row order. Training on the accelerator,
// fault injection, spare-column remap and digital degrade must all keep
// their bits for it to hold.
func TestFaultSweepGolden(t *testing.T) {
	res := FaultSweep(FaultSweepConfig{
		TrainSamples: 160, TestSamples: 64, Epochs: 2, Batch: 8,
		LearningRate: 0.08, Hidden: 32, Seed: 11,
		Densities: []float64{0, 1e-4, 5e-4},
		Spares:    4,
	})
	const acc = 0.578125
	wantModes := []string{"none", "remap", "remap+degrade"}
	want := []float64{
		acc,                // baseline, no injector
		acc, acc, 0.546875, // none
		acc, acc, acc, // remap
		acc, acc, acc, // remap+degrade
	}
	got := []float64{res.BaselineAcc}
	var modes []string
	for _, row := range res.Rows {
		modes = append(modes, row.Mode)
		got = append(got, row.Accuracies...)
	}
	if fmt.Sprint(modes) != fmt.Sprint(wantModes) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("modes %v accuracies %v, want %v %v", modes, got, wantModes, want)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range got {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if d := fmt.Sprintf("%016x", h.Sum64()); d != "46aff1afc291d666" {
		t.Fatalf("sweep digest %s, want 46aff1afc291d666", d)
	}
}
