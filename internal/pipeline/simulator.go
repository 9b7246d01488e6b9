package pipeline

import (
	"fmt"

	"pipelayer/internal/telemetry"
)

// Config describes one run of the schedule.
type Config struct {
	// L is the number of layers: the weighted layers of Table 2's model,
	// or every engine stage in core's pipelined executor.
	L int
	// B is the batch size (training only; must divide N).
	B int
	// N is the total number of input images.
	N int
	// Pipelined selects the inter-layer pipelined schedule (Figure 6) or the
	// sequential baseline (Figure 7a).
	Pipelined bool
	// Training selects the full forward+backward+update flow; false
	// simulates testing (forward only).
	Training bool
}

// Result summarizes a simulated run.
type Result struct {
	// Cycles is the total number of logical cycles.
	Cycles int
	// BufferDepth maps buffer names to their configured depth.
	BufferDepth map[string]int
	// PeakOccupancy maps buffer names to the peak number of live entries.
	PeakOccupancy map[string]int
	// MeanOccupancy maps buffer names to the mean number of live entries,
	// sampled at the end of every cycle of the run.
	MeanOccupancy map[string]float64
	// MaxUnitUsePerCycle is the maximum number of times any single hardware
	// unit was used in one cycle (must be 1 for a legal schedule).
	MaxUnitUsePerCycle int
	// Units is the number of distinct hardware units the schedule touched
	// (forward arrays A_l, output-error unit, error arrays A_lE, derivative
	// arrays A_lD, and the update unit).
	Units int
	// UnitBusyCycles is the total number of unit·cycle slots in which some
	// unit performed an operation — the schedule's busy work.
	UnitBusyCycles int
}

// Utilization returns busy-unit-cycles / total-unit-cycles — the fraction
// of the schedule's unit·cycle grid that did useful work (the per-unit
// utilization view behind the paper's Figure 6 discussion). Zero when the
// run is empty.
func (r Result) Utilization() float64 {
	total := r.Units * r.Cycles
	if total == 0 {
		return 0
	}
	return float64(r.UnitBusyCycles) / float64(total)
}

// Record publishes the run's statistics into a telemetry registry:
// pipeline_cycles, pipeline_units, pipeline_unit_utilization, and per-buffer
// depth / peak / mean occupancy gauges labeled by buffer name.
func (r Result) Record(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("pipeline_cycles").Set(float64(r.Cycles))
	reg.Gauge("pipeline_units").Set(float64(r.Units))
	reg.Gauge("pipeline_unit_busy_cycles").Set(float64(r.UnitBusyCycles))
	reg.Gauge("pipeline_unit_utilization").Set(r.Utilization())
	for name, depth := range r.BufferDepth {
		reg.Gauge(telemetry.Name("pipeline_buffer_depth", map[string]string{"buffer": name})).Set(float64(depth))
	}
	for name, peak := range r.PeakOccupancy {
		reg.Gauge(telemetry.Name("pipeline_buffer_peak_occupancy", map[string]string{"buffer": name})).Set(float64(peak))
	}
	for name, mean := range r.MeanOccupancy {
		reg.Gauge(telemetry.Name("pipeline_buffer_mean_occupancy", map[string]string{"buffer": name})).Set(mean)
	}
}

// Simulate plays cfg's schedule cycle by cycle through liveness-checked
// circular buffers, panicking on any overwrite of live data or double-booked
// unit, and returns the cycle count and buffer statistics.
//
// The returned cycle counts are validated against the Table 2 closed forms
// by the package tests (see mapping.NonPipelinedTrainingCycles etc.).
func Simulate(cfg Config) Result {
	sched := Schedule(cfg)
	bufs := NewBuffers[struct{}](cfg)
	lastUse := make([]int, 3*cfg.L+1) // cycle of each unit's latest use, 0 before its first
	units, busy := 0, 0
	occSum := make([]int, len(bufs.all))
	for i, ops := range sched {
		c := i + 1
		for _, op := range ops {
			bufs.Read(op)
			us, n := op.Units(cfg.L)
			for _, u := range us[:n] {
				if lastUse[u] == c {
					panic(fmt.Sprintf("pipeline: unit %s double-booked at cycle %d", UnitNames(cfg.L)[u], c))
				}
				if lastUse[u] == 0 {
					units++
				}
				lastUse[u] = c
				busy++
			}
		}
		// Writes follow every read of the cycle, as Buffers.Read requires.
		for _, op := range ops {
			if out := bufs.Out(op); out != nil {
				out.Write(op.Image, struct{}{})
			}
		}
		// End-of-cycle occupancy sample for the mean-occupancy gauges.
		for j, b := range bufs.all {
			occSum[j] += b.Occupancy()
		}
	}

	res := Result{
		Cycles:             len(sched),
		BufferDepth:        map[string]int{},
		PeakOccupancy:      map[string]int{},
		MeanOccupancy:      map[string]float64{},
		MaxUnitUsePerCycle: min(busy, 1), // a second use in one cycle panics above
		Units:              units,
		UnitBusyCycles:     busy,
	}
	for j, b := range bufs.all {
		res.BufferDepth[b.name] = b.Depth()
		res.PeakOccupancy[b.name] = b.MaxOccupancy
		res.MeanOccupancy[b.name] = float64(occSum[j]) / float64(len(sched))
	}
	return res
}
