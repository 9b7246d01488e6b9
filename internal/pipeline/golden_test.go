package pipeline

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// goldenLine renders every field of one simulated run, mean occupancies as
// their IEEE-754 bits, so a refactor of the schedule or the buffers has to
// reproduce each value exactly.
func goldenLine(cfg Config, r Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "L=%d B=%d N=%d pipelined=%v training=%v: cycles=%d units=%d busy=%d maxuse=%d buffers=%d/%d/%d",
		cfg.L, cfg.B, cfg.N, cfg.Pipelined, cfg.Training, r.Cycles, r.Units, r.UnitBusyCycles, r.MaxUnitUsePerCycle,
		len(r.BufferDepth), len(r.PeakOccupancy), len(r.MeanOccupancy))
	names := make([]string, 0, len(r.BufferDepth))
	for name := range r.BufferDepth {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, " %s=%d/%d/%#016x", name, r.BufferDepth[name], r.PeakOccupancy[name], math.Float64bits(r.MeanOccupancy[name]))
	}
	return sb.String()
}

// TestSimulateGolden pins every Result field over a grid of depths, batches
// and run lengths in all four pipelined × training modes against the values
// recorded in testdata/simulate.golden.
func TestSimulateGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/simulate.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, L := range []int{1, 2, 3, 5} {
		for _, B := range []int{1, 2, 4, 8} {
			for _, N := range []int{B, 3 * B} {
				for _, pipelined := range []bool{true, false} {
					for _, training := range []bool{true, false} {
						cfg := Config{L: L, B: B, N: N, Pipelined: pipelined, Training: training}
						got = append(got, goldenLine(cfg, Simulate(cfg)))
					}
				}
			}
		}
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d runs, golden file has %d lines", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("run %d:\n got %s\nwant %s", i, got[i], wantLines[i])
		}
	}
}
