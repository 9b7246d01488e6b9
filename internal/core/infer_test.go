package core

import (
	"math/rand"
	"testing"

	"pipelayer/internal/fault"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

func loadedAccel(t *testing.T, spec networks.Spec, seed int64, inj *fault.Injector) *Accelerator {
	t.Helper()
	a := newAccel()
	if inj != nil {
		if err := a.SetFaults(inj); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.TopologySet(spec, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return a
}

func assertBatchMatchesSerial(t *testing.T, a *Accelerator, samples []nn.Sample, label string) {
	t.Helper()
	r, err := a.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		xs[i] = s.Input
	}
	batched := r.InferBatch(xs)
	for i, x := range xs {
		want := r.Infer(x)
		if !tensor.Identical(batched[i], want) {
			t.Fatalf("%s: sample %d: batched inference diverged from serial", label, i)
		}
	}
}

// TestReplicaBatchBitIdentical is the core of the serving determinism
// contract: InferBatch must produce, for every sample, exactly the bits the
// serial single-request path produces — across dense, conv, and pool stages.
func TestReplicaBatchBitIdentical(t *testing.T) {
	mlp := loadedAccel(t, testutil.TinyMLP("infer-mlp"), 77, nil)
	assertBatchMatchesSerial(t, mlp, testutil.FlatSamples(24, 9), "mlp")

	cnn := loadedAccel(t, testutil.TinyDeepCNN("infer-cnn"), 5, nil)
	assertBatchMatchesSerial(t, cnn, testutil.ImageSamples(6, 3), "cnn")
}

// TestReplicaBatchBitIdenticalWithFaults: the batched readout consumes the
// same effective conductances as the serial path, so serving composes with
// SetFaults without changing a bit.
func TestReplicaBatchBitIdenticalWithFaults(t *testing.T) {
	inj := fault.MustNew(fault.Config{
		Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Drift: 0.05, Spares: 4, Degrade: true,
	})
	a := loadedAccel(t, testutil.TinyMLP("infer-fault"), 77, inj)
	if inj.Counters().Injected == 0 {
		t.Fatal("no faults injected; the config is not wired through")
	}
	assertBatchMatchesSerial(t, a, testutil.FlatSamples(16, 8), "faulty-mlp")
}

// TestReplicaMatchesTestAccuracy: replica inference agrees with the Test
// executor's verdicts on the same samples.
func TestReplicaMatchesTestAccuracy(t *testing.T) {
	a := loadedAccel(t, testutil.TinyMLP("infer-acc"), 77, nil)
	samples := testutil.FlatSamples(32, 9)
	rep, err := a.Test(samples)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		xs[i] = s.Input
	}
	hits := 0
	for i, y := range r.InferBatch(xs) {
		if _, idx := y.Max(); idx == samples[i].Label {
			hits++
		}
	}
	if got := float64(hits) / float64(len(samples)); got != rep.Accuracy {
		t.Fatalf("replica accuracy %g, Test reported %g", got, rep.Accuracy)
	}
}

// TestNewReplicaRequiresWeights: replicas only exist for loaded machines.
func TestNewReplicaRequiresWeights(t *testing.T) {
	a := newAccel()
	if _, err := a.NewReplica(); err == nil {
		t.Fatal("NewReplica before Weight_load must fail")
	}
	if err := a.TopologySet(testutil.TinyMLP("infer-unloaded"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.NewReplica(); err == nil {
		t.Fatal("NewReplica before Weight_load must fail even after Topology_set")
	}
}
