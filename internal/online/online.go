// Package online is the train-while-serve supervisor: the same logical
// machine learns from a streaming feed and serves predictions, realizing the
// paper's premise that one crossbar fabric both trains and serves — here as
// a trainer accelerator and a serving replica set that hot-swaps to each
// promoted weight version with zero dropped or torn requests.
//
// The lifecycle per candidate version is candidate → evaluated →
// promoted / rolled-back:
//
//   - the trainer consumes RoundImages samples per round; every
//     SnapshotEvery rounds the float masters are exported and persisted as a
//     candidate version via checkpoint v2 (CRC-trailed, atomically renamed);
//   - a fresh serving machine is rebuilt from the snapshot (never cloned
//     from the live trainer, whose arrays keep mutating) and scored on the
//     held-out eval set;
//   - if accuracy has not regressed more than Tolerance below the promoted
//     baseline, the serving replicas atomically swap to the candidate;
//     otherwise the candidate is rolled back and the trainer reloads the
//     last promoted weights.
//
// Robustness: crash-safe resume restores the newest checkpoint that passes
// its CRC (torn files are skipped); repeated regressions or a trainer fault
// degrade health Healthy→Lagging→Pinned while serving continues on the last
// good version; backpressure and drain semantics of the serving layer are
// untouched by swaps.
package online

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"math/rand"

	"pipelayer/internal/checkpoint"
	"pipelayer/internal/core"
	"pipelayer/internal/energy"
	"pipelayer/internal/fault"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/serve"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
)

// ErrTrainerFault reports that the background trainer hit a hard error; the
// supervisor pins serving to the last good version and stops training.
var ErrTrainerFault = errors.New("online: trainer faulted; serving pinned on last good version")

// Health is the supervisor's degradation state.
type Health int32

const (
	// Healthy: training and promotion proceed normally.
	Healthy Health = iota
	// Lagging: the last candidate regressed and was rolled back; serving
	// continues on the promoted version while training catches up.
	Lagging
	// Pinned: promotion is disabled (MaxRegressions consecutive rollbacks,
	// or a trainer fault); serving is frozen on the last good version.
	Pinned
)

// String returns the telemetry/reporting form.
func (h Health) String() string {
	switch h {
	case Lagging:
		return "lagging"
	case Pinned:
		return "pinned"
	default:
		return "healthy"
	}
}

// flightTrackOnline is the flight-recorder track the supervisor's round /
// eval / swap spans land on — clear of the request track (0), the replica
// tracks (1..N) and the training-stage tracks (100+).
const flightTrackOnline = 90

// Config tunes the supervisor. Spec, Dir, and Eval are required; every
// numeric zero value means its documented default.
type Config struct {
	// Spec is the served (and trained) network geometry.
	Spec networks.Spec
	// Model is the device model (zero value: energy.DefaultModel()).
	Model energy.Model
	// Lambda is the array-granularity scale (0 → 1).
	Lambda float64
	// Seed derives the cold-start weight initialization.
	Seed int64
	// Dir is the versioned checkpoint directory (checkpoint.Store).
	Dir string
	// Eval is the held-out eval set candidates are scored on.
	Eval []nn.Sample
	// Serve tunes the serving layer (replicas, batching, queue).
	Serve serve.Config

	// Batch is the training batch size (default 8).
	Batch int
	// RoundImages is how many samples one training round consumes (default
	// 4×Batch; rounded up to a multiple of Batch).
	RoundImages int
	// LR is the learning rate (default 0.05).
	LR float64
	// SnapshotEvery snapshots a candidate every N rounds (default 1).
	SnapshotEvery int
	// Tolerance is the allowed eval-accuracy drop below the promoted
	// baseline before a candidate is rolled back (default 0.02).
	Tolerance float64
	// MaxRegressions pins the supervisor after N consecutive rollbacks
	// (default 3).
	MaxRegressions int
	// KeepCheckpoints prunes the store to the newest N versions (the
	// promoted one always survives); 0 keeps everything.
	KeepCheckpoints int

	// Metrics receives online_* instruments (and serve_* ones when
	// Serve.Metrics is unset).
	Metrics *telemetry.Registry
	// Flight records online_round / online_eval / online_swap spans (and is
	// handed to the serving layer when Serve.Flight is unset).
	Flight *flight.Recorder
	// Faults, when non-nil, wires the fault injector into the trainer's
	// arrays — serving machines are always rebuilt on ideal arrays from the
	// snapshot, so faults degrade candidates' learned weights, not the
	// readout of promoted versions.
	Faults *fault.Injector

	// evalHook, settable only from this package's tests, rewrites a
	// candidate's measured eval accuracy — the injected-regression lever.
	evalHook func(version uint64, acc float64) float64
}

// withDefaults resolves every defaulted field.
func (c Config) withDefaults() Config {
	if c.Model.SpikeBits == 0 {
		c.Model = energy.DefaultModel()
	}
	if c.Lambda <= 0 {
		c.Lambda = 1
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.RoundImages <= 0 {
		c.RoundImages = 4 * c.Batch
	}
	if rem := c.RoundImages % c.Batch; rem != 0 {
		c.RoundImages += c.Batch - rem
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.02
	}
	if c.MaxRegressions <= 0 {
		c.MaxRegressions = 3
	}
	return c
}

// Supervisor owns a training accelerator, a versioned checkpoint store, and
// a serving server. Construct with New, then either call Step from one
// goroutine (deterministic, test- and benchmark-friendly) or Start/Run the
// background loop. Step is not safe for concurrent use — Run owns it.
type Supervisor struct {
	cfg      Config
	serveCfg serve.Config // effective (defaulted) serving config
	feed     Feed
	store    *checkpoint.Store
	trainer  *core.Accelerator
	staging  *nn.Network // host network reused for export/save/load
	srv      *serve.Server

	// Training-loop state, owned by the goroutine driving Step.
	baselineAcc float64
	epochImages int
	regressions int
	trainerDead bool
	next        uint64 // next candidate version number

	// Cross-goroutine observables.
	version    atomic.Uint64 // promoted (serving) version
	health     atomic.Int32
	rounds     atomic.Int64
	snapshots  atomic.Int64
	promotions atomic.Int64
	rollbacks  atomic.Int64
	resumed    bool

	started  atomic.Bool
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	runErr   atomic.Value // error from the background loop, if any

	flight *flight.Recorder

	mRounds, mSnapshots, mPromotions     *telemetry.Counter
	mRollbacks, mSwapFails, mTrainFaults *telemetry.Counter
	gHealth, gVersion, gAcc, gLoss       *telemetry.Gauge
}

// New builds the supervisor: it opens (or resumes from) the checkpoint
// store, assembles the trainer, scores the starting version on the eval
// set, and starts the serving layer on a machine rebuilt from that version.
// On a cold start the initial weights are saved as version 1; after a crash
// the newest checkpoint that validates wins and numbering continues past it.
// The training loop is NOT started — call Start (or Run) for that, or drive
// Step directly.
func New(feed Feed, cfg Config) (*Supervisor, error) {
	if feed == nil {
		return nil, errors.New("online: nil feed")
	}
	if cfg.Dir == "" {
		return nil, errors.New("online: Config.Dir (checkpoint directory) is required")
	}
	if len(cfg.Eval) == 0 {
		return nil, errors.New("online: Config.Eval (held-out eval set) is required")
	}
	if err := cfg.Spec.ValidateTrainable(); err != nil {
		return nil, fmt.Errorf("online: Config.Spec: %w", err)
	}
	cfg = cfg.withDefaults()

	store, err := checkpoint.OpenStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		cfg:    cfg,
		feed:   feed,
		store:  store,
		flight: cfg.Flight,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.initTelemetry(cfg.Metrics)

	// Weight discovery: newest valid checkpoint, else cold-start init.
	s.staging = networks.BuildTrainable(cfg.Spec, rand.New(rand.NewSource(cfg.Seed)))
	version, epoch, ok, err := store.LatestValid(s.staging)
	if err != nil {
		return nil, err
	}
	if ok {
		s.resumed = true
		s.epochImages = epoch
		s.next = version + 1
	} else {
		version = 1
		s.next = 2
		if err := store.Save(s.staging, 0, 1, checkpoint.StatePromoted); err != nil {
			return nil, err
		}
	}
	s.version.Store(version)

	// Trainer: faults (if any) wire in before Weight_load.
	s.trainer = core.New(cfg.Model)
	if cfg.Metrics != nil {
		s.trainer.SetMetrics(cfg.Metrics)
	}
	if cfg.Faults != nil {
		if err := s.trainer.SetFaults(cfg.Faults); err != nil {
			return nil, err
		}
	}
	if err := s.trainer.TopologySet(cfg.Spec, cfg.Lambda); err != nil {
		return nil, err
	}
	if err := s.trainer.WeightLoad(s.staging, nil); err != nil {
		return nil, err
	}
	if cfg.Flight.Enabled() {
		s.trainer.SetFlight(cfg.Flight)
		cfg.Flight.SetTrackName(flightTrackOnline, "online supervisor")
	}

	// Serving machine: rebuilt from the snapshot on ideal arrays, scored
	// for the promotion baseline, then handed to the serving layer.
	machine, err := core.NewFromSnapshot(cfg.Model, cfg.Spec, cfg.Lambda, s.staging)
	if err != nil {
		return nil, err
	}
	rep, err := machine.Test(cfg.Eval)
	if err != nil {
		return nil, err
	}
	s.baselineAcc = rep.Accuracy

	s.serveCfg = cfg.Serve
	if s.serveCfg.Metrics == nil {
		s.serveCfg.Metrics = cfg.Metrics
	}
	if s.serveCfg.Flight == nil {
		s.serveCfg.Flight = cfg.Flight
	}
	s.serveCfg.InitialVersion = version
	s.serveCfg = s.serveCfg.WithDefaults()
	s.srv, err = serve.New(machine, s.serveCfg)
	if err != nil {
		return nil, err
	}
	if s.resumed {
		// The resumed version is what we serve: record it promoted even if
		// a crash left its manifest entry behind (or as candidate).
		if serr := store.SetState(version, checkpoint.StatePromoted); serr != nil {
			if serr = store.Save(s.staging, s.epochImages, version, checkpoint.StatePromoted); serr != nil {
				return nil, serr
			}
		}
	}
	s.gauge(s.gVersion, float64(version))
	s.gauge(s.gAcc, s.baselineAcc)
	s.gauge(s.gHealth, float64(Healthy))
	return s, nil
}

func (s *Supervisor) initTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mRounds = reg.Counter("online_rounds_total")
	s.mSnapshots = reg.Counter("online_snapshots_total")
	s.mPromotions = reg.Counter("online_promotions_total")
	s.mRollbacks = reg.Counter("online_rollbacks_total")
	s.mSwapFails = reg.Counter("online_swap_failures_total")
	s.mTrainFaults = reg.Counter("online_trainer_faults_total")
	s.gHealth = reg.Gauge("online_health")
	s.gVersion = reg.Gauge("online_weight_version")
	s.gAcc = reg.Gauge("online_eval_accuracy")
	s.gLoss = reg.Gauge("online_train_loss")
}

// Server returns the serving layer (for Predict / Handler / Close-free
// inspection). It remains valid until Close.
func (s *Supervisor) Server() *serve.Server { return s.srv }

// Version returns the promoted weight version currently serving.
func (s *Supervisor) Version() uint64 { return s.version.Load() }

// Health returns the supervisor's degradation state.
func (s *Supervisor) Health() Health { return Health(s.health.Load()) }

// Resumed reports whether New restored weights from an existing checkpoint.
func (s *Supervisor) Resumed() bool { return s.resumed }

// BaselineAccuracy returns the promoted version's eval accuracy. Only
// meaningful from the goroutine driving Step (or after the loop stopped).
func (s *Supervisor) BaselineAccuracy() float64 { return s.baselineAcc }

// Rounds, Snapshots, Promotions, Rollbacks return lifetime counts; safe to
// poll while the loop runs.
func (s *Supervisor) Rounds() int64     { return s.rounds.Load() }
func (s *Supervisor) Snapshots() int64  { return s.snapshots.Load() }
func (s *Supervisor) Promotions() int64 { return s.promotions.Load() }
func (s *Supervisor) Rollbacks() int64  { return s.rollbacks.Load() }

// Err returns the terminal error of the background loop, if it has one.
func (s *Supervisor) Err() error {
	if e, ok := s.runErr.Load().(error); ok {
		return e
	}
	return nil
}

// setHealth publishes the state to telemetry and the serving /healthz.
func (s *Supervisor) setHealth(h Health) {
	s.health.Store(int32(h))
	s.gauge(s.gHealth, float64(h))
	switch h {
	case Lagging:
		s.srv.SetReadiness(serve.ReadinessLagging)
	case Pinned:
		s.srv.SetReadiness(serve.ReadinessPinned)
	default:
		s.srv.SetReadiness(serve.ReadinessOK)
	}
}

// noteTrainerFault pins serving on the last good version and stops training.
func (s *Supervisor) noteTrainerFault(err error) error {
	s.trainerDead = true
	s.count(s.mTrainFaults)
	s.setHealth(Pinned)
	return fmt.Errorf("%w: %v", ErrTrainerFault, err)
}

// Step runs one training round; every SnapshotEvery rounds it snapshots,
// evaluates, and promotes (or rolls back) a candidate version. Serving is
// never interrupted: a promoted candidate lands as an atomic replica swap,
// a rejected one leaves the old version serving. Returns ErrTrainerFault
// (wrapped) on a hard trainer error; after that Step refuses to run and
// serving stays pinned.
func (s *Supervisor) Step() error {
	if s.trainerDead {
		return ErrTrainerFault
	}
	t0 := s.flight.Now()
	samples := s.feed.Next(s.cfg.RoundImages)
	if len(samples) == 0 || len(samples)%s.cfg.Batch != 0 {
		return s.noteTrainerFault(fmt.Errorf("online: feed returned %d samples, need a positive multiple of batch %d", len(samples), s.cfg.Batch))
	}
	rep, err := s.trainer.Train(samples, s.cfg.Batch, s.cfg.LR)
	if err != nil {
		return s.noteTrainerFault(err)
	}
	round := s.rounds.Add(1)
	s.epochImages += len(samples)
	s.count(s.mRounds)
	s.gauge(s.gLoss, rep.MeanLoss)
	s.flight.Record("online_round", 0, flightTrackOnline, t0, round)
	if round%int64(s.cfg.SnapshotEvery) != 0 {
		return nil
	}
	if s.Health() == Pinned {
		// Promotion disabled: keep training (drift and endurance keep
		// accumulating, per the online-learning motivation) but never swap.
		return nil
	}
	return s.promoteCandidate()
}

// promoteCandidate snapshots the trainer as the next version, scores it,
// and either swaps serving to it or rolls it back.
func (s *Supervisor) promoteCandidate() error {
	v := s.next
	if err := s.trainer.ExportWeights(s.staging); err != nil {
		return s.noteTrainerFault(err)
	}
	if err := s.store.Save(s.staging, s.epochImages, v, checkpoint.StateCandidate); err != nil {
		return s.noteTrainerFault(err)
	}
	s.next++
	s.snapshots.Add(1)
	s.count(s.mSnapshots)

	tEval := s.flight.Now()
	candidate, err := core.NewFromSnapshot(s.cfg.Model, s.cfg.Spec, s.cfg.Lambda, s.staging)
	if err != nil {
		return s.noteTrainerFault(err)
	}
	rep, err := candidate.Test(s.cfg.Eval)
	if err != nil {
		return s.noteTrainerFault(err)
	}
	acc := rep.Accuracy
	if s.cfg.evalHook != nil {
		acc = s.cfg.evalHook(v, acc)
	}
	s.flight.Record("online_eval", 0, flightTrackOnline, tEval, int64(v))

	if acc+s.cfg.Tolerance < s.baselineAcc {
		s.rollback(v)
		return nil
	}

	replicas, err := candidate.ReplicaSet(s.serveCfg.Replicas)
	if err != nil {
		s.count(s.mSwapFails)
		s.rollback(v)
		return nil
	}
	tSwap := s.flight.Now()
	if err := s.srv.Swap(replicas, v); err != nil {
		s.count(s.mSwapFails)
		s.rollback(v)
		return nil
	}
	s.flight.Record("online_swap", 0, flightTrackOnline, tSwap, int64(v))

	// Promoted: the candidate is the new baseline.
	if err := s.store.SetState(v, checkpoint.StatePromoted); err != nil {
		return s.noteTrainerFault(err)
	}
	s.version.Store(v)
	s.baselineAcc = acc
	s.regressions = 0
	s.promotions.Add(1)
	s.count(s.mPromotions)
	s.gauge(s.gVersion, float64(v))
	s.gauge(s.gAcc, acc)
	s.setHealth(Healthy)
	if s.cfg.KeepCheckpoints > 0 {
		if err := s.store.Prune(s.cfg.KeepCheckpoints, v); err != nil {
			return s.noteTrainerFault(err)
		}
	}
	return nil
}

// rollback restores the trainer to the promoted version after a rejected
// candidate (eval regression or swap failure) and degrades health.
func (s *Supervisor) rollback(candidate uint64) {
	promoted := s.version.Load()
	if _, err := s.store.Load(promoted, s.staging); err != nil {
		_ = s.noteTrainerFault(err)
		return
	}
	if err := s.trainer.WeightLoad(s.staging, nil); err != nil {
		_ = s.noteTrainerFault(err)
		return
	}
	_ = s.store.SetState(candidate, checkpoint.StateRolledBack)
	s.rollbacks.Add(1)
	s.count(s.mRollbacks)
	s.regressions++
	if s.regressions >= s.cfg.MaxRegressions {
		s.setHealth(Pinned)
	} else {
		s.setHealth(Lagging)
	}
}

// Run drives Step until ctx is canceled, Close is called, or the trainer
// faults. It may be called at most once (Start counts).
func (s *Supervisor) Run(ctx context.Context) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("online: Run called twice")
	}
	return s.loop(ctx)
}

// Start launches Run in the background; the loop's terminal error, if any,
// is available via Err. Safe to call once.
func (s *Supervisor) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("online: already running")
	}
	go func() {
		//pipelayer:allow-ctxflow the background training loop outlives any one request by design; its lifetime is owned by Close (which closes s.stop and joins s.done), not by a caller's context
		if err := s.loop(context.Background()); err != nil && !errors.Is(err, context.Canceled) {
			s.runErr.Store(err)
		}
	}()
	return nil
}

func (s *Supervisor) loop(ctx context.Context) error {
	defer close(s.done)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.stop:
			return nil
		default:
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
}

// Close stops the training loop (waiting for it to finish its current
// round) and then drains the serving layer: queued requests are answered,
// new ones refused, all goroutines joined.
func (s *Supervisor) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
	return s.srv.Close()
}

func (s *Supervisor) count(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (s *Supervisor) gauge(g *telemetry.Gauge, v float64) {
	if g != nil {
		g.Set(v)
	}
}
