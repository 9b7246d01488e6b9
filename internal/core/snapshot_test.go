package core

import (
	"math/rand"
	"testing"

	"pipelayer/internal/energy"
	"pipelayer/internal/networks"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// TestExportWeightsRoundTrip: masters exported to a host network must match
// WeightsSnapshot bit for bit, and a machine rebuilt from the snapshot must
// serve bit-identically to a replica of the original — the consistency
// contract a hot swap rests on.
func TestExportWeightsRoundTrip(t *testing.T) {
	spec := testutil.TinyMLP("snap-mlp")
	a := loadedAccel(t, spec, 11, nil)
	if _, err := a.Train(testutil.FlatSamples(20, 3), 5, 0.1); err != nil {
		t.Fatal(err)
	}

	snap := networks.BuildTrainable(spec, rand.New(rand.NewSource(999)))
	if err := a.ExportWeights(snap); err != nil {
		t.Fatal(err)
	}
	masters := a.WeightsSnapshot()
	params := snap.Params()
	if len(masters) != len(params) {
		t.Fatalf("exported %d params, accelerator has %d weight tensors", len(params), len(masters))
	}
	for i := range params {
		if !tensor.Equal(params[i].Value, masters[i], 0) {
			t.Fatalf("param %s differs from accelerator master", params[i].Name)
		}
	}

	rebuilt, err := NewFromSnapshot(energy.DefaultModel(), spec, 1, snap)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := a.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := rebuilt.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	inputs := testutil.FlatSamples(12, 7)
	for i, s := range inputs {
		if !tensor.Equal(fresh.Infer(s.Input), orig.Infer(s.Input), 0) {
			t.Fatalf("sample %d: rebuilt machine diverged from original", i)
		}
	}

	// The rebuilt machine is frozen: training the original further must not
	// change what the snapshot machine serves.
	before := make([]*tensor.Tensor, len(inputs))
	for i, s := range inputs {
		before[i] = fresh.Infer(s.Input)
	}
	if _, err := a.Train(testutil.FlatSamples(20, 5), 5, 0.1); err != nil {
		t.Fatal(err)
	}
	for i, s := range inputs {
		if !tensor.Equal(fresh.Infer(s.Input), before[i], 0) {
			t.Fatalf("sample %d: snapshot machine changed under continued training", i)
		}
	}
}

func TestExportWeightsValidates(t *testing.T) {
	a := newAccel()
	net := networks.BuildTrainable(testutil.TinyMLP("snap-v1"), rand.New(rand.NewSource(1)))
	if err := a.ExportWeights(net); err == nil {
		t.Fatal("ExportWeights before WeightLoad must error")
	}
	a = loadedAccel(t, testutil.TinyMLP("snap-v2"), 2, nil)
	if err := a.ExportWeights(nil); err == nil {
		t.Fatal("ExportWeights into nil network must error")
	}
	// Topology mismatch: different hidden width.
	other := networks.BuildTrainable(testutil.TinyDeepMLP("snap-v3"), rand.New(rand.NewSource(3)))
	if err := a.ExportWeights(other); err == nil {
		t.Fatal("ExportWeights into mismatched topology must error")
	}
	before := other.Params()[0].Value.Clone()
	_ = a.ExportWeights(other)
	if !tensor.Equal(other.Params()[0].Value, before, 0) {
		t.Fatal("failed export mutated the target network")
	}
}
