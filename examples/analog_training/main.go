// Analog training: the paper's headline capability driven through the full
// Section 5.2 programming interface. An Accelerator is configured with
// Topology_set / Weight_load / Pipeline_set; training data is staged with
// Copy_to_PL; Train runs complete backpropagation *on the device model* —
// forward through quantized crossbars, error backward through
// reordered-kernel arrays, weight updates through the 1/B-averaging
// read–modify–write — and the run is also executed through the functional
// Figure 6 pipeline to show both paths produce identical weights.
//
// Run with: go run ./examples/analog_training
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/networks"
	"pipelayer/internal/tensor"
)

func main() {
	model := energy.DefaultModel()
	spec := networks.MnistA()
	train, test := dataset.TrainTest(600, 200, dataset.DefaultOptions(true), 11)

	// --- Section 5.2 call sequence. ---
	acc := core.New(model)
	must(acc.TopologySet(spec, 1))
	must(acc.WeightLoad(nil, rand.New(rand.NewSource(42)))) // initial weights
	must(acc.PipelineSet(true))
	train = acc.CopyToPL(train)
	fmt.Printf("configured %s: %d plans, pipeline on, %d bytes staged\n\n",
		spec.Name, len(acc.Plans()), acc.HostBytesIn)

	before, err := acc.Test(test)
	must(err)
	fmt.Printf("before training: accuracy %.3f\n", before.Accuracy)

	for epoch := 1; epoch <= 5; epoch++ {
		rep, err := acc.Train(train, 10, 0.1)
		must(err)
		fmt.Printf("epoch %d: loss %.4f  (%d cycles, %.3g s, %.3g J modeled)\n",
			epoch, rep.MeanLoss, rep.Cycles, rep.Seconds, rep.Energy.Total())
	}

	after, err := acc.Test(test)
	must(err)
	fmt.Printf("after training : accuracy %.3f (%d cycles, %.3g s)\n\n",
		after.Accuracy, after.Cycles, after.Seconds)

	// --- The pipelined executor computes the identical result. ---
	seq := core.New(model)
	must(seq.TopologySet(spec, 1))
	must(seq.WeightLoad(nil, rand.New(rand.NewSource(7))))
	pipe := core.New(model)
	must(pipe.TopologySet(spec, 1))
	must(pipe.WeightLoad(nil, rand.New(rand.NewSource(7))))

	if _, err := seq.Train(train[:100], 10, 0.1); err != nil {
		log.Fatal(err)
	}
	if _, err := pipe.TrainPipelined(train[:100], 10, 0.1); err != nil {
		log.Fatal(err)
	}
	ws, wp := seq.WeightsSnapshot(), pipe.WeightsSnapshot()
	identical := true
	for i := range ws {
		if !tensor.Identical(ws[i], wp[i]) {
			identical = false
		}
	}
	fmt.Printf("sequential vs Figure-6 pipelined training weights identical: %v\n", identical)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
