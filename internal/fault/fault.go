// Package fault is the deterministic fault-injection layer of the
// reproduction: real ReRAM arrays suffer stuck-at cells, conductance drift,
// finite write endurance and transient write failures — non-idealities the
// paper's evaluation abstracts away but a production simulator must survive
// and quantify. The package provides a seedable Injector whose every draw is
// a pure hash of (seed, array id, cell slot, event index), so fault maps,
// remap decisions and training trajectories are bit-identical across worker
// counts, process restarts and machines — the same determinism contract the
// parallel compute backend keeps (see internal/parallel).
//
// The injector itself only answers questions ("is this cell stuck?", "does
// this write fail?", "how much has conductance drifted after n cycles?") and
// counts events; the tolerance mechanisms that react to the answers live
// with the device model: write retry, spare-column remapping and
// digital-emulation degrade in internal/arch's fault model, and periodic
// drift refresh in internal/core.
package fault

import (
	"flag"
	"fmt"
	"math"
	"sync/atomic"

	"pipelayer/internal/telemetry"
)

// Stuck is the permanent state of one ReRAM cell.
type Stuck uint8

const (
	// None marks a healthy, programmable cell.
	None Stuck = iota
	// StuckOff pins the cell at minimum conductance (code 0).
	StuckOff
	// StuckOn pins the cell at maximum conductance (code 15).
	StuckOn
)

// Config controls the fault model. The zero value disables every fault
// mechanism; Enabled reports whether any injection is active.
type Config struct {
	// Seed drives every deterministic draw.
	Seed int64
	// StuckOff / StuckOn are the per-cell densities of cells permanently
	// stuck at minimum / maximum conductance (manufacturing defects).
	StuckOff, StuckOn float64
	// Drift is the log-time conductance drift coefficient ν: after age
	// compute cycles a programmed conductance has decayed by the factor
	// (1+age)^(-ν). 0 disables drift.
	Drift float64
	// Endurance is the per-cell write budget; once a cell's write counter
	// exceeds it the cell wears out and freezes at its last conductance.
	// 0 means unlimited endurance.
	Endurance int64
	// WriteFail is the probability that one write attempt fails
	// transiently (the cell refuses the target this attempt).
	WriteFail float64
	// Retries bounds the write retry loop: a write that fails transiently
	// is retried up to Retries times before the cell is given up and
	// frozen, like a worn-out cell, at the code it last held.
	Retries int
	// Spares is the number of redundant columns per crossbar available for
	// remapping faulty logical columns.
	Spares int
	// Degrade enables the graceful-degradation fallback: once spares are
	// exhausted, faulty columns are computed by exact digital emulation
	// instead of the corrupted analog array.
	Degrade bool
	// Refresh is the period, in compute cycles (pipelined trainer) or
	// images (sequential trainer), between drift-refresh reprograms of all
	// arrays from their master weights. 0 disables refresh.
	Refresh int
}

// Enabled reports whether any fault mechanism injects at this config.
func (c Config) Enabled() bool {
	return c.StuckOff > 0 || c.StuckOn > 0 || c.Drift > 0 || c.Endurance > 0 || c.WriteFail > 0
}

// Validate checks the config ranges.
func (c Config) Validate() error {
	if c.StuckOff < 0 || c.StuckOn < 0 || c.StuckOff+c.StuckOn > 1 {
		return fmt.Errorf("fault: stuck densities must be non-negative with sum ≤ 1 (got off=%g on=%g)", c.StuckOff, c.StuckOn)
	}
	if c.WriteFail < 0 || c.WriteFail >= 1 {
		return fmt.Errorf("fault: write-fail probability must be in [0,1) (got %g)", c.WriteFail)
	}
	if c.Drift < 0 {
		return fmt.Errorf("fault: drift coefficient must be non-negative (got %g)", c.Drift)
	}
	if c.Endurance < 0 {
		return fmt.Errorf("fault: endurance must be non-negative (got %d)", c.Endurance)
	}
	if c.Retries < 0 {
		return fmt.Errorf("fault: retries must be non-negative (got %d)", c.Retries)
	}
	if c.Spares < 0 {
		return fmt.Errorf("fault: spares must be non-negative (got %d)", c.Spares)
	}
	if c.Refresh < 0 {
		return fmt.Errorf("fault: refresh period must be non-negative (got %d)", c.Refresh)
	}
	return nil
}

// RegisterFlags registers the -fault-* flag set on fs and returns the Config
// the parsed flags fill in. All three cmds share this definition so the flag
// surface stays uniform.
func RegisterFlags(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.Int64Var(&c.Seed, "fault-seed", 1, "seed for the deterministic fault injector")
	fs.Float64Var(&c.StuckOff, "fault-stuck-off", 0, "density of cells stuck at minimum conductance")
	fs.Float64Var(&c.StuckOn, "fault-stuck-on", 0, "density of cells stuck at maximum conductance")
	fs.Float64Var(&c.Drift, "fault-drift", 0, "log-time conductance drift coefficient ν ((1+age)^-ν per compute cycle)")
	fs.Int64Var(&c.Endurance, "fault-endurance", 0, "per-cell write budget before wear-out (0 = unlimited)")
	fs.Float64Var(&c.WriteFail, "fault-write-fail", 0, "transient write failure probability per program attempt")
	fs.IntVar(&c.Retries, "fault-retries", 3, "bounded write retries before a cell is given up and frozen at its last code")
	fs.IntVar(&c.Spares, "fault-spares", 4, "spare columns per crossbar for remapping faulty columns")
	fs.BoolVar(&c.Degrade, "fault-degrade", true, "fall back to exact digital emulation once spares are exhausted")
	fs.IntVar(&c.Refresh, "fault-refresh", 0, "cycles between drift-refresh reprograms (0 = off)")
	return c
}

// Counters is a snapshot of the injector's event counts.
type Counters struct {
	// Injected is the number of stuck-at cells the static maps contain
	// across all attached arrays.
	Injected int64
	// Retried counts write attempts that failed transiently and were
	// retried with a backed-off pulse budget.
	Retried int64
	// WriteFailed counts cells given up on after exhausting retries (each
	// is marked permanently stuck).
	WriteFailed int64
	// WornOut counts cells frozen by endurance exhaustion.
	WornOut int64
	// Remapped counts logical columns rerouted to spare columns.
	Remapped int64
	// Degraded counts logical columns that fell back to digital emulation
	// after spare exhaustion.
	Degraded int64
	// Corrupted counts logical columns left running on faulty cells (no
	// spare available and degrade disabled).
	Corrupted int64
	// Refreshes counts drift-refresh reprogram sweeps.
	Refreshes int64
}

// Injector answers deterministic fault queries and accumulates tolerance
// telemetry. A nil *Injector is valid and means "no faults": every query
// returns the healthy answer and every counter bump is a no-op, so device
// models hold one nil-able pointer instead of branching on a config.
type Injector struct {
	cfg Config

	injected, retried, writeFailed, wornOut atomic.Int64
	remapped, degraded, corrupted, refresh  atomic.Int64

	// Cached telemetry handles (nil when no registry is attached). The
	// internal atomics count regardless so Counters() works without one.
	mInjected, mRetried, mWriteFailed, mWornOut *telemetry.Counter
	mRemapped, mDegraded, mCorrupted, mRefresh  *telemetry.Counter
}

// New creates an injector for the config. Disabled configs are fine — the
// injector simply never injects — but most callers gate on cfg.Enabled()
// and keep a nil injector instead.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
}

// MustNew is New for deterministic test/example setup; it panics on an
// invalid config.
func MustNew(cfg Config) *Injector {
	in, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return in
}

// Config returns the injector's configuration (zero Config for nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// AttachMetrics publishes the fault_* counters into reg (nil detaches).
func (in *Injector) AttachMetrics(reg *telemetry.Registry) {
	if in == nil {
		return
	}
	if reg == nil {
		in.mInjected, in.mRetried, in.mWriteFailed, in.mWornOut = nil, nil, nil, nil
		in.mRemapped, in.mDegraded, in.mCorrupted, in.mRefresh = nil, nil, nil, nil
		return
	}
	in.mInjected = reg.Counter("fault_cells_injected_total")
	in.mRetried = reg.Counter("fault_writes_retried_total")
	in.mWriteFailed = reg.Counter("fault_writes_failed_total")
	in.mWornOut = reg.Counter("fault_cells_worn_out_total")
	in.mRemapped = reg.Counter("fault_columns_remapped_total")
	in.mDegraded = reg.Counter("fault_columns_degraded_total")
	in.mCorrupted = reg.Counter("fault_columns_corrupted_total")
	in.mRefresh = reg.Counter("fault_refreshes_total")
}

// Counters snapshots the event counts (zero for nil).
func (in *Injector) Counters() Counters {
	if in == nil {
		return Counters{}
	}
	return Counters{
		Injected:    in.injected.Load(),
		Retried:     in.retried.Load(),
		WriteFailed: in.writeFailed.Load(),
		WornOut:     in.wornOut.Load(),
		Remapped:    in.remapped.Load(),
		Degraded:    in.degraded.Load(),
		Corrupted:   in.corrupted.Load(),
		Refreshes:   in.refresh.Load(),
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator — a full-avalanche
// 64-bit mixer, the standard choice for counter-indexed deterministic
// randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform value in [0,1) for the (array, slot, salt) triple.
func (in *Injector) draw(array uint64, slot int, salt uint64) float64 {
	h := splitmix64(uint64(in.cfg.Seed))
	h = splitmix64(h ^ array)
	h = splitmix64(h ^ uint64(slot))
	h = splitmix64(h ^ salt)
	return float64(h>>11) / (1 << 53)
}

// StuckAt returns the static stuck-at state of one cell slot of one array.
// The map is a pure function of (seed, array, slot), so every caller — any
// worker, any process — sees the same map, and a given cell's fate is stable
// as densities grow (the stuck-off region is a prefix of the unit interval).
func (in *Injector) StuckAt(array uint64, slot int) Stuck {
	if in == nil || (in.cfg.StuckOff == 0 && in.cfg.StuckOn == 0) {
		return None
	}
	u := in.draw(array, slot, 0x5ca1ab1e)
	if u < in.cfg.StuckOff {
		return StuckOff
	}
	if u < in.cfg.StuckOff+in.cfg.StuckOn {
		return StuckOn
	}
	return None
}

// WriteFails reports whether the write-th program attempt on the slot fails
// transiently. Indexing by the cell's cumulative write count makes the draw
// deterministic yet different on every retry.
func (in *Injector) WriteFails(array uint64, slot int, write int64) bool {
	if in == nil || in.cfg.WriteFail == 0 {
		return false
	}
	return in.draw(array, slot, 0xbad0c0de+uint64(write)) < in.cfg.WriteFail
}

// DriftFactor returns the multiplicative conductance decay after age compute
// cycles: (1+age)^(-ν), the standard log-time drift law. 1 for nil or ν=0.
func (in *Injector) DriftFactor(age int64) float64 {
	if in == nil || in.cfg.Drift == 0 || age <= 0 {
		return 1
	}
	return math.Pow(1+float64(age), -in.cfg.Drift)
}

// bump adds n to an internal counter and its telemetry mirror.
func bump(v *atomic.Int64, m *telemetry.Counter, n int64) {
	if n <= 0 {
		return
	}
	v.Add(n)
	if m != nil {
		m.Add(n)
	}
}

// NoteInjected records n stuck cells found while building a static map.
func (in *Injector) NoteInjected(n int64) {
	if in != nil {
		bump(&in.injected, in.mInjected, n)
	}
}

// NoteRetried records n transiently failed, retried write attempts.
func (in *Injector) NoteRetried(n int64) {
	if in != nil {
		bump(&in.retried, in.mRetried, n)
	}
}

// NoteWriteFailed records n cells abandoned after exhausting retries.
func (in *Injector) NoteWriteFailed(n int64) {
	if in != nil {
		bump(&in.writeFailed, in.mWriteFailed, n)
	}
}

// NoteWornOut records n cells frozen by endurance exhaustion.
func (in *Injector) NoteWornOut(n int64) {
	if in != nil {
		bump(&in.wornOut, in.mWornOut, n)
	}
}

// NoteRemapped records n logical columns rerouted to spares.
func (in *Injector) NoteRemapped(n int64) {
	if in != nil {
		bump(&in.remapped, in.mRemapped, n)
	}
}

// NoteDegraded records n logical columns degraded to digital emulation.
func (in *Injector) NoteDegraded(n int64) {
	if in != nil {
		bump(&in.degraded, in.mDegraded, n)
	}
}

// NoteCorrupted records n logical columns left corrupted (no spare, no
// degrade).
func (in *Injector) NoteCorrupted(n int64) {
	if in != nil {
		bump(&in.corrupted, in.mCorrupted, n)
	}
}

// NoteRefresh records one drift-refresh reprogram sweep.
func (in *Injector) NoteRefresh() {
	if in != nil {
		bump(&in.refresh, in.mRefresh, 1)
	}
}
