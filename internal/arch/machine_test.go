package arch_test

// Machine-level checks: a float network lowered onto the accelerator's
// analog inference datapath — arch's quantized crossbar arrays behind core's
// layer engines, with ReLU fused into its weighted stage, the sigmoid LUT
// stage and average pooling — scores as the float network does. They live
// in an external test package because core builds on arch.

import (
	"math"
	"math/rand"
	"testing"

	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// loadMachine programs net's weights into a fresh accelerator at the default
// 16 spike bits.
func loadMachine(t *testing.T, spec networks.Spec, net *nn.Network) *core.Accelerator {
	t.Helper()
	a, err := core.NewFromSnapshot(energy.DefaultModel(), spec, 1, net)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// machineReplica is loadMachine's inference replica; it fails the test
// unless the lowering produced the expected number of engines.
func machineReplica(t *testing.T, spec networks.Spec, net *nn.Network, engines int) *core.Replica {
	t.Helper()
	r, err := loadMachine(t, spec, net).NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Engines(); got != engines {
		t.Fatalf("%d engines, want %d", got, engines)
	}
	return r
}

// checkScores fails unless every class score of x on r is within
// tol·(1+|float|) of the float network's.
func checkScores(t *testing.T, net *nn.Network, r *core.Replica, x *tensor.Tensor, tol float64) {
	t.Helper()
	yf, ya := net.Forward(x), r.Infer(x)
	for i := 0; i < 10; i++ {
		if math.Abs(yf.At(i)-ya.At(i)) > tol*(1+math.Abs(yf.At(i))) {
			t.Fatalf("score %d: float %g vs analog %g", i, yf.At(i), ya.At(i))
		}
	}
}

func TestMachineMatchesFloatNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("machine fidelity test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(2))
	net := networks.BuildTrainable(networks.Mnist0(), rng)
	train, test := dataset.TrainTest(300, 120, dataset.DefaultOptions(false), 5)
	for epoch := 0; epoch < 3; epoch++ {
		net.TrainEpoch(train, 10, 0.05)
	}
	rep, err := loadMachine(t, networks.Mnist0(), net).Test(test)
	if err != nil {
		t.Fatal(err)
	}
	floatAcc := net.Accuracy(test)
	if math.Abs(floatAcc-rep.Accuracy) > 0.05 {
		t.Fatalf("analog accuracy %g deviates from float accuracy %g", rep.Accuracy, floatAcc)
	}
	if rep.Accuracy < 0.5 {
		t.Fatalf("analog accuracy %g suspiciously low", rep.Accuracy)
	}
}

func TestMachineEnginesFuseActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := networks.BuildTrainable(networks.MnistA(), rng)
	// Mnist-A: fc1(+relu fused), fc2 → exactly 2 engines.
	machineReplica(t, networks.MnistA(), net, 2)
}

func TestMachineForwardScoresCloseToFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := networks.BuildTrainable(networks.MnistA(), rng)
	r := machineReplica(t, networks.MnistA(), net, 2)
	checkScores(t, net, r, tensor.New(784).RandUniform(rng, 0, 1), 0.02)
}

func TestMachineSigmoidLUTFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	spec := testutil.SigmoidMLP("sig-mlp")
	net := networks.BuildTrainable(spec, rng)
	// fc1 (no fusion) + sigmoid LUT stage + fc2 = 3 engines.
	r := machineReplica(t, spec, net, 3)
	checkScores(t, net, r, tensor.New(784).RandUniform(rng, 0, 1), 0.03)
}

func TestMachineAvgPoolFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	spec := testutil.AvgPoolCNN("avg-cnn")
	net := networks.BuildTrainable(spec, rng)
	// conv1 (+relu fused), average pool, fc = 3 engines.
	r := machineReplica(t, spec, net, 3)
	checkScores(t, net, r, tensor.New(1, 28, 28).RandUniform(rng, 0, 1), 0.03)
}
