package pipelayer_test

import (
	"context"
	"fmt"
	"math/rand"

	pipelayer "pipelayer"
)

// The Table 2 closed forms: training cost of the pipelined vs. sequential
// machine for a 5-layer network, batch 64, 640 images.
func ExampleTrainingCycles() {
	pipelined := pipelayer.TrainingCycles(5, 64, 640, true)
	sequential := pipelayer.TrainingCycles(5, 64, 640, false)
	fmt.Println(pipelined, sequential)
	// Output: 750 7050
}

// Testing-phase cycles: after L−1 fill cycles the pipeline emits one result
// per cycle.
func ExampleTestingCycles() {
	fmt.Println(pipelayer.TestingCycles(8, 1000, true))
	fmt.Println(pipelayer.TestingCycles(8, 1000, false))
	// Output:
	// 1007
	// 8000
}

// The cycle-accurate simulator agrees with the closed form and reports the
// Section 3.3 buffer depths.
func ExampleSimulatePipeline() {
	res := pipelayer.SimulatePipeline(pipelayer.PipelineConfig{
		L: 3, B: 4, N: 8, Pipelined: true, Training: true,
	})
	fmt.Println("cycles:", res.Cycles)
	fmt.Println("d1 buffer depth:", res.BufferDepth["d1"])
	// Output:
	// cycles: 22
	// d1 buffer depth: 5
}

// Workload accounting: VGG-16 forward cost per image.
func ExampleForwardGOPs() {
	g := pipelayer.ForwardGOPs(pipelayer.VGG("D"))
	fmt.Printf("%.0f GOPs\n", g)
	// Output: 31 GOPs
}

// Fault injection: a seeded injector wires stuck cells, drift, endurance
// wear and write failures into every crossbar; spare-column remapping and
// the digital-emulation fallback repair what they can, and the counters
// report the outcome. The same seed reproduces the same faults and repair
// decisions at every worker count.
func ExampleNewFaultInjector() {
	inj, err := pipelayer.NewFaultInjector(pipelayer.FaultConfig{
		Seed:     42,
		StuckOff: 1e-4, StuckOn: 5e-5, // stuck-at cell densities
		Spares:  4,    // redundant columns per array
		Degrade: true, // fall back to digital emulation when spares run out
	})
	if err != nil {
		panic(err)
	}
	spec := pipelayer.EvaluationNetworks()[0] // Mnist-A
	net := pipelayer.BuildTrainable(spec, rand.New(rand.NewSource(1)))
	acc := pipelayer.NewAccelerator(pipelayer.DefaultDeviceModel())
	if err := acc.TopologySet(spec, 1); err != nil {
		panic(err)
	}
	if err := acc.SetFaults(inj); err != nil {
		panic(err)
	}
	if err := acc.WeightLoad(net, nil); err != nil {
		panic(err)
	}
	// acc is ready for Test — results repaired where spares allowed.
	c := inj.Counters()
	fmt.Println("corrupt columns:", c.Corrupted)
	// Output: corrupt columns: 0
}

// An embeddable batching inference server: concurrent Predict calls
// coalesce into multi-column crossbar readouts, and every response is
// bit-identical to a serial Replica.Infer on the same machine.
func ExampleNewServer() {
	acc := pipelayer.NewAccelerator(pipelayer.DefaultDeviceModel())
	spec := pipelayer.EvaluationNetworks()[0] // Mnist-A
	if err := acc.TopologySet(spec, 1); err != nil {
		panic(err)
	}
	if err := acc.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
		panic(err)
	}
	srv, err := pipelayer.NewServer(acc, pipelayer.ServeConfig{Replicas: 2, MaxBatch: 8})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	_, test := pipelayer.SyntheticDigits(1, 1, true, 3)
	res, err := srv.Predict(context.Background(), test[0].Input)
	if err != nil {
		panic(err)
	}
	rep, _ := acc.NewReplica()
	serial := rep.Infer(test[0].Input)
	identical := true
	for i := 0; i < serial.Size(); i++ {
		if res.Scores.At(i) != serial.At(i) {
			identical = false
		}
	}
	fmt.Println("scores:", res.Scores.Size(), "bit-identical:", identical)
	// Output: scores: 10 bit-identical: true
}

// The Figure 6 schedule rendered as a Gantt chart: each row is a hardware
// unit, each column a cycle, digits are image indices.
func ExampleScheduleGantt() {
	out, _ := pipelayer.ScheduleGantt(2, 2, 8)
	fmt.Print(out)
	// Output:
	//       cycle 12345678
	//          A1 01.....2
	//          A2 .01.....
	//        ErrL ..01....
	//         A2E ...01...
	//         A2D ...01...
	//         A1D ....01..
	//         Upd ......#.
}
