// Package core is the integrated PipeLayer accelerator — the paper's primary
// contribution assembled from every substrate. It exposes the programming
// interface of Section 5.2 (Copy_to_PL / Copy_to_CPU, Topology_set,
// Weight_load, Pipeline_set, Train / Test) as a stateful Accelerator. Its
// layer engines are the repository's one analog datapath. An engine holds no
// activations and has one batched forward, so Test, the serving Replicas and
// both training executors share the same engines, and each executor keeps
// the stage boundaries d_l itself. The accelerator executes *complete
// training* functionally through them:
//
//   - forward passes run through quantized crossbar models (the bit-exact
//     fast equivalent of the spike-domain simulation, see internal/arch).
//     The activation component of Section 4.2.3 is a sign check for ReLU,
//     fused into its weighted stage, and a configurable-LUT stage for the
//     sigmoid; a pooling stage takes each window's maximum (the max
//     register) or its Equation 2 mean;
//   - error backward runs through dedicated error arrays holding the
//     reordered kernels (W)* of Section 4.3;
//   - partial derivatives accumulate in buffers over the batch and the
//     weight update flows through the Section 4.4.2 read–modify–write with
//     1/B averaging spikes and 4-bit segment recomposition;
//
// while the timing/energy side of every run comes from Table 2's cycle
// counts, which the cycle-accurate pipeline simulation reproduces, and the
// device model.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"pipelayer/internal/arch"
	"pipelayer/internal/energy"
	"pipelayer/internal/fault"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/parallel"
	"pipelayer/internal/pipeline"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// Accelerator is a configured PipeLayer device. The zero value is unusable;
// create one with New and drive it through the Section 5.2 call sequence:
// TopologySet → WeightLoad → PipelineSet → Train/Test.
type Accelerator struct {
	model energy.Model

	spec   networks.Spec
	lambda float64
	plans  []mapping.Plan

	engines   []layerEngine
	loss      nn.Loss
	update    *arch.UpdateUnit
	pipelined bool

	// metrics is the optional telemetry registry (SetMetrics); stageTel is
	// the per-stage instrument cache rebuilt after every Weight_load.
	metrics  *telemetry.Registry
	stageTel []stageTelemetry

	// faults is the optional fault injector (SetFaults); it is wired into
	// every crossbar at the next Weight_load.
	faults *fault.Injector

	// flight is the optional flight recorder (SetFlight). clock is
	// flight.Clock(flight): every timed boundary is read from it once, and
	// the reading serves both the registry span and the flight event.
	flight *flight.Recorder
	clock  func() int64

	topologySet bool
	loaded      bool

	// HostBytesIn / HostBytesOut count Copy_to_PL / Copy_to_CPU traffic.
	HostBytesIn, HostBytesOut int64
}

// Report summarizes one Train or Test run: functional results plus the
// modeled cycles, wall-clock time and energy.
type Report struct {
	Images   int
	Accuracy float64
	MeanLoss float64
	Cycles   int
	Seconds  float64
	Energy   energy.Breakdown
}

// New creates an unconfigured accelerator with the given device model.
func New(model energy.Model) *Accelerator {
	return &Accelerator{model: model, loss: nn.SoftmaxLoss{}, update: arch.NewUpdateUnit(model.SpikeBits), clock: flight.Clock(nil)}
}

// TopologySet configures the layer connections and datapaths (the paper's
// Topology_set): the network geometry and the λ-scaled array granularity.
func (a *Accelerator) TopologySet(spec networks.Spec, lambda float64) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	a.spec = spec
	a.lambda = lambda
	a.plans = a.model.BalancedPlans(spec.Layers, mapping.DefaultArray, lambda)
	a.topologySet = true
	a.loaded = false
	a.pipelined = false
	return nil
}

// WeightLoad programs weights into the morphable subarrays (the paper's
// Weight_load): pretrained weights when net is non-nil, otherwise fresh
// initial weights drawn from rng for training from scratch.
func (a *Accelerator) WeightLoad(net *nn.Network, rng *rand.Rand) error {
	if !a.topologySet {
		return errors.New("core: Weight_load before Topology_set")
	}
	if net == nil {
		if rng == nil {
			return errors.New("core: initial Weight_load requires a random source")
		}
		if err := a.spec.ValidateTrainable(); err != nil {
			return err
		}
		net = networks.BuildTrainable(a.spec, rng)
	}
	engines, err := buildEngines(net, a.model.SpikeBits, a.faults)
	if err != nil {
		return err
	}
	a.engines = engines
	a.stageTel = nil // engine set changed; rebuild instruments on next run
	a.loaded = true
	return nil
}

// SetFaults attaches a fault injector; the fault model is wired into every
// crossbar at the next Weight_load, so the injector must be set before
// loading weights. A nil injector restores the ideal device. Attach the
// injector to the telemetry registry too when one is set (SetMetrics does
// this automatically for the current injector).
func (a *Accelerator) SetFaults(inj *fault.Injector) error {
	if a.loaded {
		return errors.New("core: Set_faults after Weight_load; attach the injector before loading weights")
	}
	a.faults = inj
	if a.metrics != nil {
		inj.AttachMetrics(a.metrics)
	}
	return nil
}

// Faults returns the attached fault injector (nil for the ideal device).
func (a *Accelerator) Faults() *fault.Injector { return a.faults }

// tickEngines ages every crossbar by n compute cycles — drift accumulation.
// Must only run from serial sections.
func (a *Accelerator) tickEngines(n int64) {
	if a.faults == nil || a.faults.Config().Drift == 0 {
		return
	}
	for _, e := range a.engines {
		e.tick(n)
	}
}

// refreshEngines reprograms every crossbar from the float masters — the
// periodic drift-refresh tolerance mechanism. The rewrite goes through the
// full fault path (wear, transient failures, remap), so refreshing is not
// free: it spends endurance to buy back accuracy.
func (a *Accelerator) refreshEngines() {
	t0 := a.clock()
	for _, e := range a.engines {
		e.reprogram()
	}
	a.faults.NoteRefresh()
	if a.metrics != nil {
		a.metrics.Span("fault_refresh_seconds").Add(time.Duration(a.clock() - t0))
	}
}

// maybeRefresh runs a refresh every cfg.Refresh units (images for the serial
// executor, cycles for the pipelined one); unit is the running count.
func (a *Accelerator) maybeRefresh(unit int64) {
	if a.faults == nil {
		return
	}
	if rp := a.faults.Config().Refresh; rp > 0 && unit%int64(rp) == 0 {
		a.refreshEngines()
	}
}

// PipelineSet enables or disables the inter-layer pipeline (the paper's
// Pipeline_set).
func (a *Accelerator) PipelineSet(on bool) error {
	if !a.loaded {
		return errors.New("core: Pipeline_set before Weight_load")
	}
	a.pipelined = on
	return nil
}

// CopyToPL models the host-to-accelerator transfer of input data and
// returns the same samples (the accelerator works in place); transfer bytes
// are accounted at float32 width.
func (a *Accelerator) CopyToPL(samples []nn.Sample) []nn.Sample {
	for _, s := range samples {
		a.HostBytesIn += int64(s.Input.Size()) * 4
	}
	return samples
}

// CopyToCPU models the accelerator-to-host readback of a result tensor.
func (a *Accelerator) CopyToCPU(t *tensor.Tensor) *tensor.Tensor {
	a.HostBytesOut += int64(t.Size()) * 4
	return t.Clone()
}

// forward runs one image through the analog datapath and returns the stage
// boundaries: acts[i] is stage i's input and acts[i+1] its output, the d
// values the backward pass reads. Each stage's forward is closed by
// endStage and attributed to image, the image's 1-based ordinal.
func (a *Accelerator) forward(x *tensor.Tensor, image uint64) []*tensor.Tensor {
	tel := a.stageTelemetrySlice()
	acts := make([]*tensor.Tensor, len(a.engines)+1)
	acts[0] = x
	for i, e := range a.engines {
		t0 := a.clock()
		// acts[i:i+1:i+1] is the one-image batch, sliced without a copy.
		acts[i+1] = e.forward(acts[i : i+1 : i+1])[0]
		a.endStage(tel, stageForward, i, image, t0)
	}
	return acts
}

// Test runs inference over the samples (the paper's Test mode) and reports
// accuracy plus the modeled cycles/time/energy of the run.
func (a *Accelerator) Test(samples []nn.Sample) (Report, error) {
	if !a.loaded {
		return Report{}, errors.New("core: Test before Weight_load")
	}
	if len(samples) == 0 {
		return Report{}, errors.New("core: Test with no samples")
	}
	if err := a.checkSamples(samples); err != nil {
		return Report{}, err
	}
	// Images fan out across the worker pool over the shared engines, which
	// compute from the programmed arrays alone (the weight replication of
	// Section 3.2.3 applied to Test throughput); a correct-prediction count
	// is order-independent, so the result matches the serial scan exactly.
	tel := a.stageTelemetrySlice()
	var correct atomic.Int64
	parallel.Default().For(len(samples), 1, func(lo, hi int) {
		hits := 0
		for _, s := range samples[lo:hi] {
			xs := []*tensor.Tensor{s.Input}
			for i, e := range a.engines {
				t0 := a.clock()
				xs = e.forward(xs)
				if tel != nil {
					tel[i].spans[stageForward].Add(time.Duration(a.clock() - t0))
				}
			}
			if _, idx := xs[0].Max(); idx == s.Label {
				hits++
			}
		}
		correct.Add(int64(hits))
	})
	n := len(samples)
	a.countImages("core_test_images_total", n)
	return Report{
		Images:   n,
		Accuracy: float64(correct.Load()) / float64(n),
		Cycles:   a.modeledCycles(n, 0, false),
		Seconds:  a.model.TestingTime(a.spec, a.plans, n, a.pipelined),
		Energy:   a.model.TestingEnergy(a.spec, a.plans, n, a.pipelined),
	}, nil
}

// Train runs the paper's Train mode over the samples with the given batch
// size and learning rate: weights are frozen within each batch, per-image
// partial derivatives accumulate in the gradient buffers, and the averaged
// update is applied through the hardware read–modify–write at each batch
// boundary. It returns the functional results plus the modeled run cost.
//
// The image loop itself stays serial: gradient buffers accumulate per image
// in a fixed order, and fanning images out would reassociate those floating-
// point sums, breaking the bit-identity with TrainPipelined. All parallelism
// comes from inside the per-image tensor and crossbar ops, which preserve
// the serial accumulation order (see internal/parallel).
func (a *Accelerator) Train(samples []nn.Sample, batch int, lr float64) (Report, error) {
	if !a.loaded {
		return Report{}, errors.New("core: Train before Weight_load")
	}
	if batch <= 0 {
		return Report{}, errors.New("core: batch must be positive")
	}
	if len(samples) == 0 || len(samples)%batch != 0 {
		return Report{}, fmt.Errorf("core: sample count %d must be a positive multiple of batch %d", len(samples), batch)
	}
	if err := a.checkTrain(samples); err != nil {
		return Report{}, err
	}
	totalLoss := 0.0
	classes := a.spec.Classes
	tel := a.stageTelemetrySlice()
	images := int64(0)
	for start := 0; start < len(samples); start += batch {
		for _, s := range samples[start : start+batch] {
			images++
			acts := a.forward(s.Input, uint64(images))
			y := acts[len(acts)-1]
			t := nn.OneHot(s.Label, classes)
			totalLoss += a.loss.Loss(y, t)
			delta := a.loss.Grad(y, t)
			for i := len(a.engines) - 1; i >= 0; i-- {
				t0 := a.clock()
				delta = a.backward(i, delta, acts[i], acts[i+1])
				a.endStage(tel, stageBackward, i, uint64(images), t0)
			}
			// One drift tick per processed image; periodic refresh rewrites
			// drifted conductances from the masters. (The per-batch update
			// below reprograms anyway, so drift only accumulates within a
			// batch — physically faithful: programming resets the filament.)
			a.tickEngines(1)
			a.maybeRefresh(images)
		}
		a.updateStages(tel, lr, batch)
	}
	n := len(samples)
	a.countImages("core_train_images_total", n)
	return Report{
		Images:   n,
		MeanLoss: totalLoss / float64(n),
		Cycles:   a.modeledCycles(n, batch, true),
		Seconds:  a.model.TrainingTime(a.spec, a.plans, n, batch, a.pipelined),
		Energy:   a.model.TrainingEnergy(a.spec, a.plans, n, batch, a.pipelined),
	}, nil
}

// updateStages applies the batch update to every stage, the Section 4.4
// read–modify–write that ends a batch in both executors, closing each
// stage's update through endStage and counting it when telemetry is
// attached.
func (a *Accelerator) updateStages(tel []stageTelemetry, lr float64, batch int) {
	for i, e := range a.engines {
		t0 := a.clock()
		e.applyUpdate(lr, batch, a.update)
		a.endStage(tel, stageUpdate, i, 0, t0)
		if tel != nil {
			tel[i].updates.Inc()
			tel[i].cells.Add(tel[i].nCells)
		}
	}
}

// modeledCycles is a run's logical cycle count from Table 2's closed forms,
// which internal/pipeline's tests prove equal to its cycle simulation. The
// simulation runs only when a registry is attached, for its utilization and
// buffer-occupancy gauges.
func (a *Accelerator) modeledCycles(n, batch int, training bool) int {
	L := a.spec.WeightedLayers()
	if a.metrics != nil {
		pipeline.Simulate(pipeline.Config{L: L, B: batch, N: n, Pipelined: a.pipelined, Training: training}).Record(a.metrics)
	}
	switch {
	case training && a.pipelined:
		return mapping.PipelinedTrainingCycles(L, batch, n)
	case training:
		return mapping.NonPipelinedTrainingCycles(L, batch, n)
	case a.pipelined:
		return mapping.PipelinedTestingCycles(L, n)
	}
	return mapping.NonPipelinedTestingCycles(L, n)
}

// checkTrain is the pre-flight Train and TrainPipelined share, run before
// any array is touched. The network must be one the analog backward path
// can train: the Figure 11 error-backward-as-convolution identity it
// implements holds for unit stride, so a strided conv, which inference
// serves, is refused here. Then every sample must pass checkSamples.
func (a *Accelerator) checkTrain(samples []nn.Sample) error {
	for _, l := range a.spec.Layers {
		if l.Kind == mapping.KindConv && l.Stride != 1 {
			return fmt.Errorf("core: conv layer %s has stride %d; the analog backward path supports stride 1", l.Name, l.Stride)
		}
	}
	return a.checkSamples(samples)
}

// checkSamples validates every sample of a Train, TrainPipelined or Test
// run by the rule serve applies to requests: the input has the network's
// element count (and the (C,H,W) shape a conv front stage reads), every
// value is finite, and the label is a class index. In training a NaN would
// pass the loss through ReLU's clamp, turn a whole ∂W column NaN and
// saturate those weights in the update; in Test a NaN or an out-of-range
// label would score as a silent miss. A bad size panics in either.
func (a *Accelerator) checkSamples(samples []nn.Sample) error {
	c, h, w := a.spec.InC, a.spec.InH, a.spec.InW
	_, conv := a.engines[0].(*convEngine)
	for i, s := range samples {
		x := s.Input
		if x == nil {
			return fmt.Errorf("core: sample %d has no input", i)
		}
		if x.Size() != c*h*w {
			return fmt.Errorf("core: sample %d input has %d elements, want %d", i, x.Size(), c*h*w)
		}
		if conv && (x.Rank() != 3 || x.Dim(0) != c || x.Dim(1) != h || x.Dim(2) != w) {
			return fmt.Errorf("core: sample %d input has shape %v, want [%d %d %d]", i, x.Shape(), c, h, w)
		}
		for j, v := range x.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: sample %d input[%d] is not finite", i, j)
			}
		}
		if s.Label < 0 || s.Label >= a.spec.Classes {
			return fmt.Errorf("core: sample %d label %d is outside [0, %d)", i, s.Label, a.spec.Classes)
		}
	}
	return nil
}

// backward is the serial executor's backward through stage i, given the
// stage's input and output from forward: mask the raw error with f′ of the
// output, accumulate the stage's partial derivatives from the input, and
// return the raw upstream error. Stage 0's upstream error has no consumer,
// so the first stage only accumulates — the pipelined schedule's
// opGradFirst — and returns nil.
func (a *Accelerator) backward(i int, raw, in, out *tensor.Tensor) *tensor.Tensor {
	e := a.engines[i]
	d := e.maskError(raw, out)
	if i == 0 {
		e.derivative(d, in)
		return nil
	}
	return errorBackward(e, d, in)
}

// Plans returns the active mapping plans (nil before Topology_set).
func (a *Accelerator) Plans() []mapping.Plan { return a.plans }

// WeightsSnapshot returns deep copies of every stage's master parameters,
// for verification and checkpointing.
func (a *Accelerator) WeightsSnapshot() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, e := range a.engines {
		for _, w := range e.weights() {
			out = append(out, w.Clone())
		}
	}
	return out
}

// Pipelined reports whether the inter-layer pipeline is enabled.
func (a *Accelerator) Pipelined() bool { return a.pipelined }
