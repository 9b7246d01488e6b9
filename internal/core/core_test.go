package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

func newAccel() *Accelerator { return New(energy.DefaultModel()) }

func TestAPICallOrderEnforced(t *testing.T) {
	a := newAccel()
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("Weight_load before Topology_set must fail")
	}
	if err := a.PipelineSet(true); err == nil {
		t.Fatal("Pipeline_set before Weight_load must fail")
	}
	if _, err := a.Test(nil); err == nil {
		t.Fatal("Test before Weight_load must fail")
	}
	if err := a.TopologySet(networks.MnistA(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if err := a.PipelineSet(true); err != nil {
		t.Fatal(err)
	}
	if !a.Pipelined() {
		t.Fatal("pipeline should be on")
	}
}

func TestTopologySetRejectsBadSpec(t *testing.T) {
	a := newAccel()
	bad := networks.MnistA()
	bad.Classes = 3
	if err := a.TopologySet(bad, 1); err == nil {
		t.Fatal("invalid spec must be rejected")
	}
}

func TestWeightLoadWithoutRNGFails(t *testing.T) {
	a := newAccel()
	if err := a.TopologySet(networks.MnistA(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, nil); err == nil {
		t.Fatal("initial Weight_load without rng must fail")
	}
}

func TestAnalogTrainingLearnsMLP(t *testing.T) {
	if testing.Short() {
		t.Skip("analog training skipped in -short mode")
	}
	a := newAccel()
	if err := a.TopologySet(networks.MnistA(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	if err := a.PipelineSet(true); err != nil {
		t.Fatal(err)
	}
	train, test := dataset.TrainTest(600, 200, dataset.DefaultOptions(true), 9)
	train = a.CopyToPL(train)

	before, err := a.Test(test)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	for epoch := 0; epoch < 6; epoch++ {
		rep, err = a.Train(train, 10, 0.1)
		if err != nil {
			t.Fatal(err)
		}
	}
	after, err := a.Test(test)
	if err != nil {
		t.Fatal(err)
	}
	if after.Accuracy < 0.85 {
		t.Fatalf("analog-trained accuracy %.3f < 0.85 (started at %.3f)", after.Accuracy, before.Accuracy)
	}
	if after.Accuracy <= before.Accuracy {
		t.Fatal("training must improve accuracy")
	}
	if rep.MeanLoss <= 0 {
		t.Fatalf("loss = %g", rep.MeanLoss)
	}
	if a.HostBytesIn != int64(600*784*4) {
		t.Fatalf("host transfer accounting = %d", a.HostBytesIn)
	}
}

func TestAnalogTrainingMatchesFloatTrainingMLP(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	// Same seed, same data: the analog-trained network's accuracy must stay
	// close to the float-trained network's (quantized datapath fidelity
	// across a whole training run).
	seed := int64(13)
	train, test := dataset.TrainTest(500, 200, dataset.DefaultOptions(true), 21)

	fnet := networks.BuildTrainable(networks.MnistA(), rand.New(rand.NewSource(seed)))
	for e := 0; e < 5; e++ {
		fnet.TrainEpoch(train, 10, 0.1)
	}
	floatAcc := fnet.Accuracy(test)

	a := newAccel()
	if err := a.TopologySet(networks.MnistA(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 5; e++ {
		if _, err := a.Train(train, 10, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := a.Test(test)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < floatAcc-0.08 {
		t.Fatalf("analog training accuracy %.3f far below float %.3f", rep.Accuracy, floatAcc)
	}
}

func TestAnalogTrainingLearnsCNN(t *testing.T) {
	if testing.Short() {
		t.Skip("analog CNN training skipped in -short mode")
	}
	// A small CNN (C-4's first half) trained fully through the analog
	// datapath: conv error backward through reordered-kernel arrays.
	spec := networks.Spec{
		Name: "tiny-cnn", InC: 1, InH: 28, InW: 28, Classes: 10,
		Layers: []mapping.Layer{
			mapping.Conv("conv1", 1, 28, 28, 6, 3, 1, 1),
			mapping.Pool("pool1", 6, 28, 28, 2),
			mapping.FC("fc", 6*14*14, 10),
		},
	}
	a := newAccel()
	if err := a.TopologySet(spec, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	train, test := dataset.TrainTest(300, 120, dataset.DefaultOptions(false), 17)
	for e := 0; e < 3; e++ {
		if _, err := a.Train(train, 10, 0.08); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := a.Test(test)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.7 {
		t.Fatalf("analog CNN accuracy %.3f < 0.7", rep.Accuracy)
	}
}

func TestTrainValidatesBatch(t *testing.T) {
	a := newAccel()
	if err := a.TopologySet(networks.MnistA(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	samples := dataset.Generate(10, dataset.DefaultOptions(true), 1)
	if _, err := a.Train(samples, 0, 0.1); err == nil {
		t.Fatal("batch 0 must fail")
	}
	if _, err := a.Train(samples, 3, 0.1); err == nil {
		t.Fatal("non-multiple sample count must fail")
	}
}

// TestTrainRejectsBadSamples: a non-finite pixel, a mis-sized input or an
// out-of-range label anywhere in the run is an error naming the sample, from
// both training executors and from Test, before any weight changes. Without
// the check a NaN pixel trains silently into saturated weights, a mis-sized
// input panics, and Test scores a NaN pixel or a bad label as a silent miss.
func TestTrainRejectsBadSamples(t *testing.T) {
	const bad = 11 // in the second batch: the first must not train either
	corrupt := map[string]func(s *nn.Sample){
		"nan":   func(s *nn.Sample) { s.Input.Data()[300] = math.NaN() },
		"inf":   func(s *nn.Sample) { s.Input.Data()[300] = math.Inf(-1) },
		"size":  func(s *nn.Sample) { s.Input = tensor.New(s.Input.Size() - 1) },
		"label": func(s *nn.Sample) { s.Label = 10 },
	}
	executors := []struct {
		name string
		run  func(a *Accelerator, samples []nn.Sample) (Report, error)
	}{
		{"pipelined=false", func(a *Accelerator, s []nn.Sample) (Report, error) { return a.Train(s, 8, 0.1) }},
		{"pipelined=true", func(a *Accelerator, s []nn.Sample) (Report, error) { return a.TrainPipelined(s, 8, 0.1) }},
		{"test", func(a *Accelerator, s []nn.Sample) (Report, error) { return a.Test(s) }},
	}
	for _, name := range []string{"nan", "inf", "size", "label"} {
		for _, ex := range executors {
			t.Run(name+"/"+ex.name, func(t *testing.T) {
				a := loadedAccel(t, testutil.TinyMLP("bad-samples"), 77, nil)
				samples := testutil.FlatSamples(16, 8)
				samples[bad].Input = samples[bad].Input.Clone()
				corrupt[name](&samples[bad])
				before := a.WeightsSnapshot()
				_, err := ex.run(a, samples)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("sample %d ", bad)) {
					t.Fatalf("err = %v, want an error naming sample %d", err, bad)
				}
				for i, w := range a.WeightsSnapshot() {
					if err := sameBits(w, before[i]); err != nil {
						t.Fatalf("parameter %d changed: %v", i, err)
					}
				}
			})
		}
	}
}

// TestTrainRejectsFlatImageForConv: a conv front stage reads a (C,H,W)
// image, so a flat input of the right size is refused, by Train and by
// Test, rather than panicking in Im2Col.
func TestTrainRejectsFlatImageForConv(t *testing.T) {
	a := loadedAccel(t, testutil.TinyDeepCNN("bad-shape"), 5, nil)
	samples := testutil.ImageSamples(8, 9)
	samples[3].Input = samples[3].Input.Reshape(samples[3].Input.Size())
	if _, err := a.Train(samples, 8, 0.1); err == nil || !strings.Contains(err.Error(), "sample 3 ") {
		t.Fatalf("Train: err = %v, want an error naming sample 3", err)
	}
	if _, err := a.Test(samples); err == nil || !strings.Contains(err.Error(), "sample 3 ") {
		t.Fatalf("Test: err = %v, want an error naming sample 3", err)
	}
}

// TestTrainRejectsStridedConv: Weight_load accepts a stride-2 conv, which
// Test and the replicas serve, but both training executors refuse it before
// touching an array — the analog error backward needs unit stride.
func TestTrainRejectsStridedConv(t *testing.T) {
	a := loadedAccel(t, strideSpec(), 5, nil)
	samples := testutil.ImageSamples(8, 9)
	if _, err := a.Test(samples); err != nil {
		t.Fatal(err)
	}
	before := a.WeightsSnapshot()
	for _, train := range []func([]nn.Sample, int, float64) (Report, error){a.Train, a.TrainPipelined} {
		_, err := train(samples, 8, 0.1)
		if err == nil || !strings.Contains(err.Error(), "conv layer conv1 has stride 2") {
			t.Fatalf("err = %v, want the stride-1 refusal", err)
		}
	}
	for i, w := range a.WeightsSnapshot() {
		if err := sameBits(w, before[i]); err != nil {
			t.Fatalf("parameter %d changed: %v", i, err)
		}
	}
}

func TestReportsCarryModeledCost(t *testing.T) {
	a := newAccel()
	if err := a.TopologySet(networks.MnistB(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	if err := a.PipelineSet(true); err != nil {
		t.Fatal(err)
	}
	samples := dataset.Generate(20, dataset.DefaultOptions(true), 2)
	rep, err := a.Train(samples, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	L := networks.MnistB().WeightedLayers()
	if rep.Cycles != mapping.PipelinedTrainingCycles(L, 10, 20) {
		t.Fatalf("cycles = %d", rep.Cycles)
	}
	if rep.Seconds <= 0 || rep.Energy.Total() <= 0 {
		t.Fatal("report must carry modeled time and energy")
	}
	trep, err := a.Test(samples)
	if err != nil {
		t.Fatal(err)
	}
	if trep.Cycles != mapping.PipelinedTestingCycles(L, 20) {
		t.Fatalf("testing cycles = %d", trep.Cycles)
	}
}

func TestCopyToCPUClones(t *testing.T) {
	a := newAccel()
	x := tensor.FromSlice([]float64{1, 2}, 2)
	y := a.CopyToCPU(x)
	y.Set(9, 0)
	if x.At(0) != 1 {
		t.Fatal("CopyToCPU must clone")
	}
	if a.HostBytesOut != 8 {
		t.Fatalf("host bytes out = %d", a.HostBytesOut)
	}
}

func TestWeightLoadPretrained(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := networks.BuildTrainable(networks.MnistA(), rng)
	train, test := dataset.TrainTest(300, 100, dataset.DefaultOptions(true), 6)
	for e := 0; e < 4; e++ {
		net.TrainEpoch(train, 10, 0.1)
	}
	a := newAccel()
	if err := a.TopologySet(networks.MnistA(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(net, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := a.Test(test)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < net.Accuracy(test)-0.05 {
		t.Fatalf("pretrained analog accuracy %.3f far below float %.3f", rep.Accuracy, net.Accuracy(test))
	}
}

// TestWeightLoadRejectsUntrainableSpec: a cold-start Weight_load on a spec
// the trainer cannot build — no layers, or AlexNet's overlapping pools,
// both of which Topology_set accepts — returns an error instead of
// panicking inside the network builder.
func TestWeightLoadRejectsUntrainableSpec(t *testing.T) {
	for _, spec := range []networks.Spec{{}, networks.AlexNet()} {
		a := newAccel()
		if err := a.TopologySet(spec, 1); err != nil {
			t.Fatalf("%q: Topology_set: %v", spec.Name, err)
		}
		if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%q: cold-start Weight_load succeeded, want an error", spec.Name)
		}
	}
}
