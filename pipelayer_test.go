package pipelayer_test

import (
	"math/rand"
	"testing"

	pipelayer "pipelayer"
)

// The façade test drives the whole public API end to end: dataset →
// training → analog accelerator → pipeline simulation → performance models.
func TestPublicAPIEndToEnd(t *testing.T) {
	// Networks and workload accounting.
	specs := pipelayer.EvaluationNetworks()
	if len(specs) != 10 {
		t.Fatalf("expected 10 evaluation networks, got %d", len(specs))
	}
	if g := pipelayer.ForwardGOPs(pipelayer.VGG("D")); g < 25 || g > 40 {
		t.Fatalf("VGG-D forward GOPs = %g", g)
	}

	// Train a small network on the synthetic dataset.
	rng := rand.New(rand.NewSource(1))
	net := pipelayer.BuildTrainable(specs[0], rng) // Mnist-A
	train, test := pipelayer.SyntheticDigits(300, 100, true, 5)
	for epoch := 0; epoch < 4; epoch++ {
		net.TrainEpoch(train, 10, 0.1)
	}
	floatAcc := net.Accuracy(test)
	if floatAcc < 0.6 {
		t.Fatalf("float accuracy %g too low", floatAcc)
	}

	// Analog fidelity: the trained weights loaded onto the accelerator.
	acc := pipelayer.NewAccelerator(pipelayer.DefaultDeviceModel())
	if err := acc.TopologySet(specs[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := acc.WeightLoad(net, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := acc.Test(test)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < floatAcc-0.1 {
		t.Fatalf("analog accuracy %g far below float %g", rep.Accuracy, floatAcc)
	}

	// Pipeline simulation matches the closed forms.
	res := pipelayer.SimulatePipeline(pipelayer.PipelineConfig{
		L: 2, B: 10, N: 100, Pipelined: true, Training: true,
	})
	if res.Cycles != pipelayer.TrainingCycles(2, 10, 100, true) {
		t.Fatalf("simulated %d cycles, formula %d", res.Cycles, pipelayer.TrainingCycles(2, 10, 100, true))
	}

	// Performance models.
	model := pipelayer.DefaultDeviceModel()
	baseline := pipelayer.DefaultGPU()
	plans := model.BalancedPlans(specs[0].Layers, pipelayer.DefaultArray, 1)
	speedup := baseline.TestingTime(specs[0], 6400, 64) /
		model.TestingTime(specs[0], plans, 6400, true)
	if speedup < 5 {
		t.Fatalf("Mnist-A testing speedup %g implausibly low", speedup)
	}
}

func TestPublicAPITestingCycles(t *testing.T) {
	if pipelayer.TestingCycles(8, 100, true) != 107 {
		t.Fatal("pipelined testing cycles wrong")
	}
	if pipelayer.TestingCycles(8, 100, false) != 800 {
		t.Fatal("non-pipelined testing cycles wrong")
	}
}

func TestNewTensor(t *testing.T) {
	x := pipelayer.NewTensor(2, 3)
	if x.Size() != 6 {
		t.Fatal("NewTensor broken")
	}
}
