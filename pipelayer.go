// Package pipelayer is a from-scratch Go reproduction of PipeLayer, the
// pipelined ReRAM-based accelerator for deep learning of Song, Qian, Li and
// Chen (HPCA 2017). It bundles:
//
//   - a CNN training/inference framework (convolution, pooling, inner
//     product, ReLU/sigmoid, softmax/L2 losses, batch SGD) — the software
//     substrate the paper's GPU baseline runs on;
//   - a ReRAM device model: 4-bit cells, crossbar arrays, positive/negative
//     pairs, four-group 16-bit resolution compensation, spike-coded input
//     (weighted spike trains, LSBF) and Integration-and-Fire output;
//   - the PipeLayer architecture: morphable/memory subarrays, kernel mapping
//     with parallelism granularity G, circular inter-layer buffers, the
//     intra-/inter-layer pipelined training schedule, and the error-backward
//     and weight-update datapaths;
//   - performance, energy and area models parameterized with the paper's
//     NVSim-derived constants, an analytic GTX 1080 + Caffe baseline, and an
//     experiment harness that regenerates every table and figure of the
//     paper's evaluation.
//
// This façade re-exports the main entry points; the implementation lives
// under internal/ (one package per subsystem — see DESIGN.md for the full
// inventory and the per-experiment index).
package pipelayer

import (
	"io"
	"math/rand"

	"pipelayer/internal/checkpoint"
	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/experiments"
	"pipelayer/internal/fault"
	"pipelayer/internal/gpu"
	"pipelayer/internal/isaac"
	"pipelayer/internal/mapping"
	"pipelayer/internal/memsys"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/online"
	"pipelayer/internal/parallel"
	"pipelayer/internal/pipeline"
	"pipelayer/internal/planner"
	"pipelayer/internal/serve"
	"pipelayer/internal/shard"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/tensor"
	"pipelayer/internal/trace"
	"pipelayer/internal/workload"
)

// Core data types.
type (
	// Tensor is the dense n-dimensional array the framework computes on.
	Tensor = tensor.Tensor
	// Network is a trainable CNN (layers + loss).
	Network = nn.Network
	// Sample is one labeled example.
	Sample = nn.Sample
	// Spec is a benchmark network's geometry description.
	Spec = networks.Spec
	// Layer is one layer's geometry (conv/pool/fc).
	Layer = mapping.Layer
	// Plan is a layer's crossbar mapping at a chosen granularity.
	Plan = mapping.Plan
	// DeviceModel is the PipeLayer timing/energy/area model.
	DeviceModel = energy.Model
	// GPUBaseline is the analytic GTX 1080 + Caffe model.
	GPUBaseline = gpu.Platform
	// PipelineConfig configures the cycle-level schedule simulation.
	PipelineConfig = pipeline.Config
	// PipelineResult is a simulated schedule's cycle count and buffer stats.
	PipelineResult = pipeline.Result
	// ExperimentSetup bundles the models the evaluation harness shares.
	ExperimentSetup = experiments.Setup
	// Accelerator is the integrated PipeLayer device with the Section 5.2
	// programming interface and full analog training support.
	Accelerator = core.Accelerator
	// RunReport summarizes one accelerator Train/Test run.
	RunReport = core.Report
	// Solver is the SGD/momentum/weight-decay optimizer for software
	// baselines (PipeLayer's hardware update realizes the plain-SGD case).
	Solver = nn.Solver
	// MemoryConfig describes the banked memory-subarray organization.
	MemoryConfig = memsys.Config
	// DeepPipelineConfig models the ISAAC-style comparator of Section 3.2.2.
	DeepPipelineConfig = isaac.Config
	// MappingResult is an area-budgeted compiler-optimized mapping.
	MappingResult = planner.Result
	// MetricsRegistry is the concurrency-safe telemetry registry (counters,
	// gauges, histograms, timing spans). Attach one to an Accelerator with
	// SetMetrics or to a Solver through an EpochRecorder Observer.
	MetricsRegistry = telemetry.Registry
	// MetricsReporter renders a registry as human-readable text or
	// Prometheus exposition format.
	MetricsReporter = telemetry.Reporter
	// MetricsSnapshot is a point-in-time, JSON-serializable registry dump.
	MetricsSnapshot = telemetry.Snapshot
	// EpochRecorder is a Solver observer that publishes per-epoch
	// loss/accuracy/throughput into a MetricsRegistry.
	EpochRecorder = telemetry.EpochRecorder
	// FaultConfig parameterizes the deterministic ReRAM fault model:
	// stuck-at densities, conductance drift, endurance budget, transient
	// write failures, and the tolerance knobs (retries, spare columns,
	// digital-emulation degrade, refresh period).
	FaultConfig = fault.Config
	// FaultInjector is a seeded fault injector; attach one to an
	// Accelerator with SetFaults before WeightLoad.
	FaultInjector = fault.Injector
	// FaultCounters is a snapshot of an injector's event counts.
	FaultCounters = fault.Counters
	// FaultSweepConfig parameterizes the accuracy-vs-fault-density study.
	FaultSweepConfig = experiments.FaultSweepConfig
	// FaultSweepResult is the robustness study's output (BENCH_fault.json).
	FaultSweepResult = experiments.FaultSweepResult
	// Replica is a read-only inference clone of a trained Accelerator;
	// create them with Accelerator.NewReplica.
	Replica = core.Replica
	// Server is the embeddable batching inference server: concurrent
	// single-sample Predict calls coalesce into multi-column crossbar
	// readouts, bit-identical to the serial path.
	Server = serve.Server
	// ServeConfig tunes the Server's batching scheduler (batch size,
	// batching window, queue depth, metrics) and the shard chain it serves
	// through: Shards or ShardRanges set the layer-range stages (one when
	// unset), and Replicas the workers and the replica budget spread over
	// the stages.
	ServeConfig = serve.Config
	// ShardRange is one contiguous [Lo,Hi) engine range of a layer-sharded
	// server's pipeline (ServeConfig.ShardRanges).
	ShardRange = shard.Range
	// ServeResult is one completed prediction: class scores, argmax, and
	// the weight version that computed it.
	ServeResult = serve.Result
	// OnlineSupervisor is the train-while-serve supervisor: a background
	// trainer over a streaming feed whose accuracy-gated candidate versions
	// hot-swap atomically into the serving replicas; crash-safe via the
	// versioned checkpoint store.
	OnlineSupervisor = online.Supervisor
	// OnlineConfig tunes the supervisor (spec, checkpoint dir, eval set,
	// snapshot cadence, regression tolerance, serving shape).
	OnlineConfig = online.Config
	// OnlineFeed is the streaming sample source the supervisor trains from.
	OnlineFeed = online.Feed
	// OnlineHealth is the supervisor's degradation state: OnlineHealthy,
	// OnlineLagging (last candidate rolled back) or OnlinePinned (promotion
	// disabled; serving frozen on the last good version).
	OnlineHealth = online.Health
	// CheckpointStore is the versioned, manifest-tracked checkpoint
	// directory behind the supervisor's candidate→promoted/rolled-back
	// lifecycle.
	CheckpointStore = checkpoint.Store
)

// OnlineHealth states.
const (
	OnlineHealthy = online.Healthy
	OnlineLagging = online.Lagging
	OnlinePinned  = online.Pinned
)

// Serving errors a caller can branch on.
var (
	// ErrServerOverloaded: the Server's bounded queue is full (shed load).
	ErrServerOverloaded = serve.ErrOverloaded
	// ErrServerClosed: the Server is draining or closed.
	ErrServerClosed = serve.ErrClosed
)

// NewTensor allocates a zero tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// DefaultDeviceModel returns the paper-parameterized device model
// (29.31/50.88 ns and 1.08 pJ/3.91 nJ per spike, 16-bit inputs).
func DefaultDeviceModel() DeviceModel { return energy.DefaultModel() }

// DefaultGPU returns the GTX 1080 baseline parameters (paper Table 4).
func DefaultGPU() GPUBaseline { return gpu.Default() }

// DefaultArray is the 128×128 crossbar geometry.
var DefaultArray = mapping.DefaultArray

// EvaluationNetworks returns the paper's ten benchmark networks
// (Mnist-A/B/C/0, AlexNet, VGG-A…E) in Figure 15 order.
func EvaluationNetworks() []Spec { return networks.EvaluationNetworks() }

// VGG returns one of the five VGG configurations ("A".."E").
func VGG(variant string) Spec { return networks.VGG(variant) }

// AlexNet returns the AlexNet geometry.
func AlexNet() Spec { return networks.AlexNet() }

// BuildTrainable assembles a runnable Network from a geometry Spec.
func BuildTrainable(s Spec, rng *rand.Rand) *Network { return networks.BuildTrainable(s, rng) }

// SyntheticDigits generates the deterministic MNIST stand-in dataset
// (train, test); flat selects rank-1 784-vectors vs (1,28,28) images.
func SyntheticDigits(nTrain, nTest int, flat bool, seed int64) (train, test []Sample) {
	return dataset.TrainTest(nTrain, nTest, dataset.DefaultOptions(flat), seed)
}

// SimulatePipeline runs the cycle-level schedule simulation (Figure 6/7,
// validated against the Table 2 closed forms).
func SimulatePipeline(cfg PipelineConfig) PipelineResult { return pipeline.Simulate(cfg) }

// TrainingCycles and TestingCycles expose the Table 2 closed forms.
func TrainingCycles(L, B, N int, pipelined bool) int {
	if pipelined {
		return mapping.PipelinedTrainingCycles(L, B, N)
	}
	return mapping.NonPipelinedTrainingCycles(L, B, N)
}

// TestingCycles returns the inference cycle count.
func TestingCycles(L, N int, pipelined bool) int {
	if pipelined {
		return mapping.PipelinedTestingCycles(L, N)
	}
	return mapping.NonPipelinedTestingCycles(L, N)
}

// ForwardGOPs returns a network's forward giga-operations per image.
func ForwardGOPs(s Spec) float64 { return workload.GOPs(workload.NetworkForwardOps(s)) }

// DefaultExperimentSetup mirrors the paper's evaluation configuration.
func DefaultExperimentSetup() ExperimentSetup { return experiments.DefaultSetup() }

// NewAccelerator creates an unconfigured PipeLayer device. Drive it through
// the Section 5.2 sequence: TopologySet → WeightLoad → PipelineSet →
// Train/Test.
func NewAccelerator(model DeviceModel) *Accelerator { return core.New(model) }

// SaveWeights serializes a network's parameters to w (the host side of
// Weight_load).
func SaveWeights(w io.Writer, net *Network) error { return checkpoint.Save(w, net) }

// LoadWeights restores parameters saved with SaveWeights into a network of
// the same topology.
func LoadWeights(r io.Reader, net *Network) error { return checkpoint.Load(r, net) }

// SaveCheckpoint atomically writes a crash-safe training checkpoint
// (weights + epoch + CRC32 trailer) to path: temp file, fsync, rename.
func SaveCheckpoint(path string, net *Network, epoch int) error {
	return checkpoint.SaveFile(path, net, epoch)
}

// ResumeCheckpoint restores training state from path if a valid checkpoint
// exists there; ok reports whether one was loaded. A missing file is a
// normal cold start (0, false, nil); a corrupt file is a hard error.
func ResumeCheckpoint(path string, net *Network) (epoch int, ok bool, err error) {
	return checkpoint.Resume(path, net)
}

// NewServer builds inference replicas from a trained accelerator and starts
// the batching scheduler; the server serves Predict (and, via
// Server.Handler, HTTP) until Close drains it.
func NewServer(a *Accelerator, cfg ServeConfig) (*Server, error) { return serve.New(a, cfg) }

// NewOnlineSupervisor assembles the train-while-serve stack: it opens (or
// resumes from) cfg.Dir's checkpoint store, starts serving the newest valid
// version, and prepares the background trainer. Call Start to begin the
// train→snapshot→evaluate→promote loop, and Close to stop training and
// drain serving.
func NewOnlineSupervisor(feed OnlineFeed, cfg OnlineConfig) (*OnlineSupervisor, error) {
	return online.New(feed, cfg)
}

// NewSyntheticFeed streams the synthetic digit task deterministically for
// online training; flat selects rank-1 784-element inputs (MLP) over
// 1×28×28 images (CNN).
func NewSyntheticFeed(flat bool, seed int64) OnlineFeed { return online.NewSyntheticFeed(flat, seed) }

// OpenCheckpointStore opens (creating if needed) a versioned checkpoint
// directory with its lifecycle manifest.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) { return checkpoint.OpenStore(dir) }

// NewFaultInjector creates a seeded, deterministic fault injector: the same
// config yields the same stuck cells, write failures and repair decisions at
// every worker count.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) { return fault.New(cfg) }

// RunFaultSweep runs the accuracy-vs-fault-density robustness study:
// accelerator training at every (density, tolerance-mode) point.
func RunFaultSweep(cfg FaultSweepConfig) FaultSweepResult { return experiments.FaultSweep(cfg) }

// DefaultFaultSweepConfig covers the density range where spare-column repair
// transitions from fully hiding the damage to exhausted.
func DefaultFaultSweepConfig() FaultSweepConfig { return experiments.DefaultFaultSweepConfig() }

// ScheduleGantt renders the Figure 6 training schedule as an ASCII chart.
// It returns an error when any dimension is non-positive.
func ScheduleGantt(L, B, cycles int) (string, error) { return trace.Gantt(L, B, cycles) }

// NewSolver creates an SGD solver with momentum and weight decay.
func NewSolver(lr, momentum, weightDecay float64) *Solver {
	return nn.NewSolver(lr, momentum, weightDecay)
}

// OptimizeMapping runs the Section 5.2 granularity compiler: per-layer G
// minimizing cycle time under an area budget (mm²).
func OptimizeMapping(model DeviceModel, spec Spec, batch int, areaBudget float64) (MappingResult, error) {
	return planner.Optimize(model, spec, mapping.DefaultArray, batch, areaBudget)
}

// DefaultMemoryConfig returns the banked memory-subarray organization
// behind the device model's aggregate movement bandwidth.
func DefaultMemoryConfig() MemoryConfig { return memsys.DefaultConfig() }

// DefaultDeepPipeline returns the ISAAC-style comparator configuration.
func DefaultDeepPipeline() DeepPipelineConfig { return isaac.DefaultConfig() }

// NewMetricsRegistry creates an empty telemetry registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// SetWorkers resizes the process-wide worker pool behind every parallel hot
// path (tensor kernels, crossbar readout, batch fan-out). n ≤ 0 restores the
// PIPELAYER_WORKERS/GOMAXPROCS default; 1 forces fully serial execution.
// Results are bit-identical at every size. Returns the new pool size.
func SetWorkers(n int) int { return parallel.SetWorkers(n) }

// Workers returns the process-wide worker pool size.
func Workers() int { return parallel.Workers() }

// AttachPoolMetrics publishes the shared worker pool's occupancy gauge and
// scheduling counters (parallel_pool_*) into reg; nil detaches.
func AttachPoolMetrics(reg *MetricsRegistry) { parallel.Default().AttachMetrics(reg) }
