package core

import (
	"math/rand"
	"runtime"
	"testing"

	"pipelayer/internal/fault"
	"pipelayer/internal/networks"
	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

func faultSpec() networks.Spec {
	return testutil.TinyMLP("fault-mlp")
}

type trainResult struct {
	seqLoss, pipeLoss, acc float64
	weights                []*tensor.Tensor
}

// runFaultTraining drives the full call sequence with an optional injector:
// Train, TrainPipelined, Test — the same shape as the determinism test.
func runFaultTraining(t *testing.T, inj *fault.Injector) trainResult {
	t.Helper()
	a := newAccel()
	if inj != nil {
		if err := a.SetFaults(inj); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.TopologySet(faultSpec(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(77))); err != nil {
		t.Fatal(err)
	}
	train := testutil.FlatSamples(16, 8)
	test := testutil.FlatSamples(24, 9)
	seqRep, err := a.Train(train, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pipeRep, err := a.TrainPipelined(train, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	testRep, err := a.Test(test)
	if err != nil {
		t.Fatal(err)
	}
	return trainResult{
		seqLoss: seqRep.MeanLoss, pipeLoss: pipeRep.MeanLoss,
		acc: testRep.Accuracy, weights: a.WeightsSnapshot(),
	}
}

func assertSameResult(t *testing.T, got, want trainResult, label string) {
	t.Helper()
	if got.seqLoss != want.seqLoss {
		t.Errorf("%s: sequential loss %.17g, want %.17g", label, got.seqLoss, want.seqLoss)
	}
	if got.pipeLoss != want.pipeLoss {
		t.Errorf("%s: pipelined loss %.17g, want %.17g", label, got.pipeLoss, want.pipeLoss)
	}
	if got.acc != want.acc {
		t.Errorf("%s: accuracy %g, want %g", label, got.acc, want.acc)
	}
	if len(got.weights) != len(want.weights) {
		t.Fatalf("%s: %d weight tensors, want %d", label, len(got.weights), len(want.weights))
	}
	for i := range want.weights {
		if !tensor.Identical(got.weights[i], want.weights[i]) {
			t.Errorf("%s: weight tensor %d diverged", label, i)
		}
	}
}

// TestTrainingZeroDensityIdentical is the acceptance gate: an attached
// zero-density injector leaves the full training/test pipeline bit-identical
// to the fault-free accelerator.
func TestTrainingZeroDensityIdentical(t *testing.T) {
	ideal := runFaultTraining(t, nil)
	inj := fault.MustNew(fault.Config{Seed: 5, Spares: 4, Degrade: true, Retries: 3})
	assertSameResult(t, runFaultTraining(t, inj), ideal, "zero-density")
	if c := inj.Counters(); c != (fault.Counters{}) {
		t.Errorf("zero-density run counted fault events: %+v", c)
	}
}

// TestTrainingRemapExactTrajectory: with sparse stuck cells and ample spares
// the remapped accelerator trains to the exact fault-free trajectory — spare
// columns fully hide the damage.
func TestTrainingRemapExactTrajectory(t *testing.T) {
	ideal := runFaultTraining(t, nil)
	inj := fault.MustNew(fault.Config{Seed: 13, StuckOff: 1e-5, StuckOn: 5e-6, Spares: 8, Degrade: true})
	got := runFaultTraining(t, inj)
	c := inj.Counters()
	if c.Injected == 0 {
		t.Fatal("no faults injected; the injector is not wired into the engines")
	}
	if c.Degraded != 0 || c.Corrupted != 0 {
		t.Fatalf("spares should have covered all faulty columns: %+v", c)
	}
	assertSameResult(t, got, ideal, "remap")
}

// TestTrainingFaultDeterminismAcrossWorkers: a faulty run (stuck cells, write
// failures, endurance, drift, refresh all active) is bit-identical — losses,
// weights, and fault counters — for any worker count.
func TestTrainingFaultDeterminismAcrossWorkers(t *testing.T) {
	cfg := fault.Config{
		Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, WriteFail: 1e-3,
		Endurance: 10_000, Drift: 0.05, Refresh: 5, Retries: 3, Spares: 4, Degrade: true,
	}
	run := func(workers int) (trainResult, fault.Counters) {
		old := parallel.Workers()
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(old)
		inj := fault.MustNew(cfg)
		return runFaultTraining(t, inj), inj.Counters()
	}
	ref, refC := run(1)
	if refC.Injected == 0 {
		t.Fatal("no faults injected")
	}
	for _, w := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		got, gotC := run(w)
		assertSameResult(t, got, ref, "workers")
		if gotC != refC {
			t.Errorf("%d workers: counters %+v differ from serial %+v", w, gotC, refC)
		}
	}
}

// TestTrainingDriftRefresh: with drift and a refresh period set, training
// runs refreshes (visible in the counters) and still produces finite losses.
func TestTrainingDriftRefresh(t *testing.T) {
	inj := fault.MustNew(fault.Config{Seed: 7, Drift: 0.1, Refresh: 4})
	res := runFaultTraining(t, inj)
	if c := inj.Counters(); c.Refreshes == 0 {
		t.Fatalf("no refreshes ran: %+v", c)
	}
	if res.seqLoss != res.seqLoss || res.pipeLoss != res.pipeLoss { // NaN guard
		t.Fatalf("drifted training produced NaN losses: %+v", res)
	}
}

// TestSetFaultsOrderEnforced: the injector must attach before Weight_load.
func TestSetFaultsOrderEnforced(t *testing.T) {
	a := newAccel()
	if err := a.TopologySet(faultSpec(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if err := a.SetFaults(fault.MustNew(fault.Config{Seed: 1})); err == nil {
		t.Fatal("Set_faults after Weight_load must fail")
	}
	if a.Faults() != nil {
		t.Fatal("rejected injector must not attach")
	}
}
