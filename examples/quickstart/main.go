// Quickstart: the smallest end-to-end tour of the PipeLayer reproduction.
//
//  1. Train a tiny CNN on the synthetic digit task with the from-scratch
//     framework (the paper's Section 2 substrate).
//  2. Load the trained weights onto the PipeLayer accelerator (Topology_set,
//     Weight_load) and Test them through the spike-coded crossbar datapath
//     (Sections 4.1–4.2, 5.2).
//  3. Simulate the pipelined training schedule (Section 3.3) and report
//     cycles, wall-clock time and energy from the device model (Section 6.2).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/pipeline"
)

func main() {
	// --- 1. Train a small network in software. ---
	rng := rand.New(rand.NewSource(42))
	spec := networks.Mnist0() // LeNet-like CNN from Table 3
	net := networks.BuildTrainable(spec, rng)
	train, test := dataset.TrainTest(400, 150, dataset.DefaultOptions(false), 7)

	fmt.Println("1. Training Mnist-0 (software substrate)")
	for epoch := 1; epoch <= 3; epoch++ {
		loss := net.TrainEpoch(train, 10, 0.05)
		fmt.Printf("   epoch %d: mean loss %.4f\n", epoch, loss)
	}
	fmt.Printf("   float accuracy: %.3f\n\n", net.Accuracy(test))

	// --- 2. Analog inference on the PipeLayer accelerator. ---
	fmt.Println("2. Programming weights onto ReRAM crossbars (16-bit, 4-bit cells ×4 groups)")
	model := energy.DefaultModel()
	acc := core.New(model)
	if err := acc.TopologySet(spec, 1); err != nil {
		log.Fatal(err)
	}
	if err := acc.WeightLoad(net, nil); err != nil {
		log.Fatal(err)
	}
	rep, err := acc.Test(test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   analog accuracy: %.3f\n\n", rep.Accuracy)

	// --- 3. Pipeline timing and energy. ---
	fmt.Println("3. Simulating the inter-layer training pipeline (batch 64, 640 images)")
	plans := acc.Plans()
	L, B, N := spec.WeightedLayers(), 64, 640
	res := pipeline.Simulate(pipeline.Config{L: L, B: B, N: N, Pipelined: true, Training: true})
	fmt.Printf("   logical cycles  : %d (closed form: %d)\n",
		res.Cycles, mapping.PipelinedTrainingCycles(L, B, N))
	fmt.Printf("   cycle time      : %.3g s\n", model.CycleTime(plans))
	fmt.Printf("   training time   : %.3g s\n", model.TrainingTime(spec, plans, N, B, true))
	e := model.TrainingEnergy(spec, plans, N, B, true)
	fmt.Printf("   training energy : %.3g J (read %.2g + write %.2g + update %.2g + static %.2g)\n",
		e.Total(), e.ReadJ, e.WriteJ, e.UpdateJ, e.StaticJ)
	fmt.Printf("   area            : %.2f mm²\n", model.Area(spec, plans, B))
}
