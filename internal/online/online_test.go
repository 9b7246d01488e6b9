package online

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pipelayer/internal/checkpoint"
	"pipelayer/internal/core"
	"pipelayer/internal/energy"
	"pipelayer/internal/networks"
	"pipelayer/internal/serve"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// testConfig is the shared baseline: a TinyMLP trained on the flat synthetic
// task, snapshotting every round so promotions happen quickly.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Spec:      testutil.TinyMLP("online-mlp"),
		Seed:      7,
		Dir:       t.TempDir(),
		Eval:      testutil.FlatSamples(32, 101),
		Batch:     8,
		LR:        0.05,
		Metrics:   telemetry.NewRegistry(),
		Tolerance: 1, // accuracy is in [0,1]: never a regression unless a hook injects one
	}
}

func newSupervisor(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	s, err := New(NewSyntheticFeed(true, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// refScores rebuilds version v from the checkpoint store and runs xs through
// a fresh replica — the bit-exact ground truth for that version's responses.
func refScores(t *testing.T, dir string, spec networks.Spec, v uint64, xs []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	net := networks.BuildTrainable(spec, rand.New(rand.NewSource(0)))
	if _, err := store.Load(v, net); err != nil {
		t.Fatalf("load v%d: %v", v, err)
	}
	machine, err := core.NewFromSnapshot(energy.DefaultModel(), spec, 1, net)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := machine.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		out[i] = rep.Infer(x)
	}
	return out
}

func sameScores(a, b *tensor.Tensor) bool {
	da, db := a.Data(), b.Data()
	if len(da) != len(db) {
		return false
	}
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}

func evalInputs(t *testing.T, n int) []*tensor.Tensor {
	t.Helper()
	samples := testutil.FlatSamples(n, 55)
	xs := make([]*tensor.Tensor, n)
	for i, s := range samples {
		xs[i] = s.Input
	}
	return xs
}

// TestOnlineColdStartPromotes: from a cold start the supervisor saves v1,
// serves it, and each Step promotes the next version; responses carry the
// promoted version and bit-match the checkpointed weights of that version.
func TestOnlineColdStartPromotes(t *testing.T) {
	cfg := testConfig(t)
	s := newSupervisor(t, cfg)
	defer s.Close()

	if s.Resumed() {
		t.Fatal("cold start must not report resumed")
	}
	if got := s.Version(); got != 1 {
		t.Fatalf("cold start version = %d, want 1", got)
	}
	if got := s.Server().Version(); got != 1 {
		t.Fatalf("server version = %d, want 1", got)
	}

	xs := evalInputs(t, 4)
	for step := 0; step < 3; step++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Promotions(); got != 3 {
		t.Fatalf("promotions = %d, want 3", got)
	}
	if got := s.Version(); got != 4 {
		t.Fatalf("after 3 promotions version = %d, want 4", got)
	}
	if s.Health() != Healthy {
		t.Fatalf("health = %v, want Healthy", s.Health())
	}

	want := refScores(t, cfg.Dir, cfg.Spec, 4, xs)
	for i, x := range xs {
		res, err := s.Server().Predict(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != 4 {
			t.Fatalf("response version = %d, want 4", res.Version)
		}
		if !sameScores(res.Scores, want[i]) {
			t.Fatalf("input %d: served scores differ from checkpoint v4 weights", i)
		}
	}

	// The manifest must record every version, all promoted.
	store, err := checkpoint.OpenStore(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	man := store.Manifest()
	if len(man.Entries) != 4 {
		t.Fatalf("manifest has %d entries, want 4", len(man.Entries))
	}
	for _, e := range man.Entries {
		if e.State != checkpoint.StatePromoted {
			t.Fatalf("v%d state = %q, want promoted", e.Version, e.State)
		}
	}
}

// TestOnlineRegressionRollsBack: an injected eval regression must leave
// serving on the old version, mark the candidate rolled_back, restore the
// trainer to the promoted weights bit-identically, and degrade health.
func TestOnlineRegressionRollsBack(t *testing.T) {
	cfg := testConfig(t)
	cfg.evalHook = func(v uint64, acc float64) float64 {
		if v == 3 {
			return -1 // guaranteed regression: below any baseline minus tolerance
		}
		return acc
	}
	s := newSupervisor(t, cfg)
	defer s.Close()

	xs := evalInputs(t, 4)
	if err := s.Step(); err != nil { // promotes v2
		t.Fatal(err)
	}
	if err := s.Step(); err != nil { // candidate v3 regresses → rollback
		t.Fatal(err)
	}
	if got := s.Version(); got != 2 {
		t.Fatalf("after rollback version = %d, want 2", got)
	}
	if got := s.Rollbacks(); got != 1 {
		t.Fatalf("rollbacks = %d, want 1", got)
	}
	if s.Health() != Lagging {
		t.Fatalf("health = %v, want Lagging", s.Health())
	}

	// Serving still answers with v2's exact weights.
	want := refScores(t, cfg.Dir, cfg.Spec, 2, xs)
	for i, x := range xs {
		res, err := s.Server().Predict(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != 2 || !sameScores(res.Scores, want[i]) {
			t.Fatalf("input %d: response not pinned to v2's weights (version %d)", i, res.Version)
		}
	}

	// The candidate is recorded rolled_back; the trainer was restored to v2
	// bit-identically, so its next export equals the v2 checkpoint.
	store, err := checkpoint.OpenStore(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range store.Manifest().Entries {
		if e.Version == 3 && e.State != checkpoint.StateRolledBack {
			t.Fatalf("v3 state = %q, want rolled_back", e.State)
		}
	}
	restored := networks.BuildTrainable(cfg.Spec, rand.New(rand.NewSource(0)))
	if err := s.trainer.ExportWeights(restored); err != nil {
		t.Fatal(err)
	}
	promoted := networks.BuildTrainable(cfg.Spec, rand.New(rand.NewSource(0)))
	if _, err := store.Load(2, promoted); err != nil {
		t.Fatal(err)
	}
	rp, pp := restored.Params(), promoted.Params()
	for i := range rp {
		if rp[i] == nil {
			continue
		}
		for j := range rp[i].Value.Data() {
			if rp[i].Value.Data()[j] != pp[i].Value.Data()[j] {
				t.Fatalf("trainer weights differ from promoted checkpoint at param %d[%d]", i, j)
			}
		}
	}

	// Recovery: the next clean candidate promotes and health returns to Healthy.
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if got := s.Version(); got != 4 {
		t.Fatalf("after recovery version = %d, want 4", got)
	}
	if s.Health() != Healthy {
		t.Fatalf("health after recovery = %v, want Healthy", s.Health())
	}
}

// TestOnlinePinsAfterMaxRegressions: repeated regressions must pin the
// supervisor — promotion stops, serving stays on the last good version, and
// training rounds keep running without snapshotting.
func TestOnlinePinsAfterMaxRegressions(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxRegressions = 2
	cfg.evalHook = func(v uint64, acc float64) float64 {
		if v >= 3 {
			return -1
		}
		return acc
	}
	s := newSupervisor(t, cfg)
	defer s.Close()

	if err := s.Step(); err != nil { // promotes v2
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // two regressions → pinned
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Health() != Pinned {
		t.Fatalf("health = %v, want Pinned", s.Health())
	}
	snapsBefore := s.Snapshots()
	if err := s.Step(); err != nil { // pinned: trains but must not snapshot
		t.Fatal(err)
	}
	if got := s.Snapshots(); got != snapsBefore {
		t.Fatalf("pinned supervisor took a snapshot (%d -> %d)", snapsBefore, got)
	}
	if got := s.Version(); got != 2 {
		t.Fatalf("pinned version = %d, want 2", got)
	}
	if got := s.Rounds(); got != 4 {
		t.Fatalf("rounds = %d, want 4 (training continues while pinned)", got)
	}
}

// TestOnlineResumeAfterCrash: kill the supervisor, corrupt the newest
// checkpoint (a torn write), and reopen — the supervisor must resume from
// the newest version that validates, serving it bit-identically, and keep
// numbering past the torn file.
func TestOnlineResumeAfterCrash(t *testing.T) {
	cfg := testConfig(t)
	s := newSupervisor(t, cfg)
	for i := 0; i < 3; i++ { // versions 2, 3, 4
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the newest checkpoint: truncate v4 mid-file.
	store, err := checkpoint.OpenStore(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	p4 := store.Path(4)
	info, err := os.Stat(p4)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(p4, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	xs := evalInputs(t, 4)
	want := refScores(t, cfg.Dir, cfg.Spec, 3, xs)

	s2 := newSupervisor(t, cfg)
	defer s2.Close()
	if !s2.Resumed() {
		t.Fatal("expected resumed supervisor")
	}
	if got := s2.Version(); got != 3 {
		t.Fatalf("resumed version = %d, want 3 (v4 is torn)", got)
	}
	for i, x := range xs {
		res, err := s2.Server().Predict(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != 3 || !sameScores(res.Scores, want[i]) {
			t.Fatalf("input %d: resumed serving not bit-identical to v3", i)
		}
	}

	// Numbering continues past the torn version: next promotion is v4 again
	// (overwriting the torn file with a valid one).
	if err := s2.Step(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Version(); got != 4 {
		t.Fatalf("post-resume promotion version = %d, want 4", got)
	}
}

// TestOnlineConfigValidation covers the required-field errors.
func TestOnlineConfigValidation(t *testing.T) {
	base := testConfig(t)
	if _, err := New(nil, base); err == nil {
		t.Fatal("nil feed must error")
	}
	noDir := base
	noDir.Dir = ""
	if _, err := New(NewSyntheticFeed(true, 1), noDir); err == nil {
		t.Fatal("missing Dir must error")
	}
	noEval := base
	noEval.Eval = nil
	if _, err := New(NewSyntheticFeed(true, 1), noEval); err == nil {
		t.Fatal("missing Eval must error")
	}
}

// TestOnlineRunLifecycle: Start/Close joins the loop cleanly, Run refuses a
// second caller, and no goroutines leak.
func TestOnlineRunLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := testConfig(t)
	s := newSupervisor(t, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("second Start must error")
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Promotions() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no promotion within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("loop error: %v", err)
	}
	assertNoGoroutineLeaks(t, base)
}

// TestOnlinePruneKeepsPromoted: with KeepCheckpoints set, old versions are
// pruned but the promoted one always survives on disk.
func TestOnlinePruneKeepsPromoted(t *testing.T) {
	cfg := testConfig(t)
	cfg.KeepCheckpoints = 2
	s := newSupervisor(t, cfg)
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	store, err := checkpoint.OpenStore(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	man := store.Manifest()
	if len(man.Entries) > 2 {
		t.Fatalf("prune kept %d entries, want <= 2", len(man.Entries))
	}
	found := false
	for _, e := range man.Entries {
		if e.Version == s.Version() {
			found = true
			if _, err := os.Stat(filepath.Join(cfg.Dir, e.File)); err != nil {
				t.Fatalf("promoted checkpoint file missing: %v", err)
			}
		}
	}
	if !found {
		t.Fatal("promoted version pruned from manifest")
	}
}

func assertNoGoroutineLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOnlineShardedSwapSurvives: the supervisor's hot rollover works
// unchanged when the serving layer runs the layer-sharded backend. Each
// promotion goes through serve.Swap, which in sharded mode rebuilds the
// shard chain from the candidate's weights and retires the old chain; every
// response afterwards reports the promoted version and bit-matches that
// version's checkpointed weights through the serial reference.
func TestOnlineShardedSwapSurvives(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := testConfig(t)
	cfg.Serve = serve.Config{Shards: 2, MaxBatch: 8, QueueCap: 64} // TinyMLP: fc1 | fc2
	s := newSupervisor(t, cfg)

	xs := evalInputs(t, 4)
	for step := 0; step < 2; step++ { // promotes v2, then v3
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Promotions(); got != 2 {
		t.Fatalf("promotions = %d, want 2", got)
	}
	srv := s.Server()
	version := srv.Version()
	if version != 3 {
		t.Fatalf("served version = %d, want 3", version)
	}
	refs := refScores(t, cfg.Dir, cfg.Spec, version, xs)
	for i, x := range xs {
		res, err := srv.Predict(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != version {
			t.Fatalf("response version = %d, want %d", res.Version, version)
		}
		if !sameScores(res.Scores, refs[i]) {
			t.Fatalf("response %d does not bit-match version %d's weights", i, version)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoGoroutineLeaks(t, base)
}

// TestNewRejectsUntrainableSpec: a zero Spec and AlexNet's overlapping pools
// are configuration errors, returned before any checkpoint is written.
func TestNewRejectsUntrainableSpec(t *testing.T) {
	for _, spec := range []networks.Spec{{}, networks.AlexNet()} {
		cfg := testConfig(t)
		cfg.Spec = spec
		if s, err := New(NewSyntheticFeed(true, 3), cfg); err == nil {
			s.Close()
			t.Errorf("%q: New succeeded, want an error", spec.Name)
		}
		if entries, _ := os.ReadDir(cfg.Dir); len(entries) != 0 {
			t.Errorf("%q: rejected config left %d entries in the checkpoint directory", spec.Name, len(entries))
		}
	}
}
