package core

import (
	"strconv"
	"time"

	"pipelayer/internal/telemetry"
)

// stageOp is one of the three operations a stage is timed for.
type stageOp int

const (
	stageForward stageOp = iota
	stageBackward
	stageUpdate
)

// stageTelemetry caches one pipeline stage's instruments so the hot loops
// pay two atomic adds per timed region instead of a registry lookup and a
// label-formatting allocation per image.
type stageTelemetry struct {
	spans   [3]*telemetry.Span // core_stage_{forward,backward,update}_seconds, by stageOp
	updates *telemetry.Counter // applyUpdate invocations
	cells   *telemetry.Counter // master parameter values rewritten
	nCells  int64              // parameter count of this stage (0 for pools)
}

// SetMetrics attaches a telemetry registry to the accelerator; nil detaches.
// While attached, every Train/TrainPipelined/Test run records per-stage
// forward/backward/update spans (core_stage_*_seconds{stage="l"}), per-stage
// weight-write counters, and run-level image counters. A stage operation is
// timed by two readings of the accelerator's clock, the same two a flight
// event of it carries, bounded well under the tensor math they bracket.
func (a *Accelerator) SetMetrics(reg *telemetry.Registry) {
	a.metrics = reg
	a.stageTel = nil
	if a.faults != nil {
		a.faults.AttachMetrics(reg)
	}
}

// Metrics returns the attached registry (nil when detached).
func (a *Accelerator) Metrics() *telemetry.Registry { return a.metrics }

// stageTelemetrySlice lazily (re)builds the per-stage instrument cache; it
// must be called after engines exist (Weight_load) and returns nil when no
// registry is attached so call sites can branch on one nil check.
func (a *Accelerator) stageTelemetrySlice() []stageTelemetry {
	if a.metrics == nil {
		return nil
	}
	if len(a.stageTel) == len(a.engines) {
		return a.stageTel
	}
	tel := make([]stageTelemetry, len(a.engines))
	for i, e := range a.engines {
		lbl := map[string]string{"stage": strconv.Itoa(i + 1)}
		cells := int64(0)
		for _, w := range e.weights() {
			cells += int64(w.Size())
		}
		tel[i] = stageTelemetry{
			spans: [...]*telemetry.Span{
				stageForward:  a.metrics.Span(telemetry.Name("core_stage_forward_seconds", lbl)),
				stageBackward: a.metrics.Span(telemetry.Name("core_stage_backward_seconds", lbl)),
				stageUpdate:   a.metrics.Span(telemetry.Name("core_stage_update_seconds", lbl)),
			},
			updates: a.metrics.Counter(telemetry.Name("core_weight_updates_total", lbl)),
			cells:   a.metrics.Counter(telemetry.Name("core_weight_writes_total", lbl)),
			nCells:  cells,
		}
	}
	a.stageTel = tel
	return tel
}

// endStage closes stage i's operation op, begun at t0 on the accelerator's
// clock and attributed to an image's 1-based ordinal (0 for a batch update).
// It reads the end instant once and gives both instants to the stage's span
// and to its core_stage_* flight event, so a span's total equals its
// events' summed durations to the nanosecond.
func (a *Accelerator) endStage(tel []stageTelemetry, op stageOp, i int, image uint64, t0 int64) {
	t1 := a.clock()
	if tel != nil {
		tel[i].spans[op].Add(time.Duration(t1 - t0))
	}
	track := flightTrainTrackBase + uint64(i)
	// The metricname analyzer wants a constant event name at each site.
	switch op {
	case stageForward:
		a.flight.RecordAt("core_stage_forward", image, track, t0, t1, int64(i))
	case stageBackward:
		a.flight.RecordAt("core_stage_backward", image, track, t0, t1, int64(i))
	case stageUpdate:
		a.flight.RecordAt("core_stage_update", image, track, t0, t1, int64(i))
	}
}

// countImages bumps a run-level image counter when a registry is attached.
// The name parameter forwards the string literals its three call sites
// pass (core_train_images_total / core_test_images_total), which the
// metricname analyzer can't see through the indirection.
func (a *Accelerator) countImages(name string, n int) {
	if a.metrics != nil {
		//pipelayer:allow-metricname forwards literal names from Train/Test call sites
		a.metrics.Counter(name).Add(int64(n))
	}
}
