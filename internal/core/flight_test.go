package core

import (
	"testing"

	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// TestReplicaFlightDepths pins the -trace-depth contract: depth 1 emits one
// core_layer_forward span per engine per pass, depth 2 adds per-readout arch
// spans, and tracing never changes a bit of the output.
func TestReplicaFlightDepths(t *testing.T) {
	a := loadedAccel(t, testutil.TinyMLP("flight-depth"), 77, nil)
	samples := testutil.FlatSamples(4, 9)
	xs := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		xs[i] = s.Input
	}

	plain, err := a.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	want := plain.InferBatch(xs)

	for _, depth := range []int{1, 2} {
		rec := flight.New(flight.Config{Capacity: 256})
		r, err := a.NewReplica()
		if err != nil {
			t.Fatal(err)
		}
		r.AttachFlight(rec, 3, depth)
		got := r.InferBatch(xs)
		for i := range want {
			if !tensor.Identical(got[i], want[i]) {
				t.Fatalf("depth %d: traced inference diverged at sample %d", depth, i)
			}
		}

		var layers, readouts int
		for _, e := range rec.Events() {
			if e.Track != 3 {
				t.Fatalf("depth %d: span on track %d, want replica track 3: %+v", depth, e.Track, e)
			}
			switch e.Name {
			case "core_layer_forward":
				layers++
			case "arch_readout", "arch_readout_cols":
				readouts++
			default:
				t.Fatalf("depth %d: unexpected span %q", depth, e.Name)
			}
		}
		if layers != len(a.engines) {
			t.Fatalf("depth %d: %d layer spans, want %d", depth, layers, len(a.engines))
		}
		if depth == 1 && readouts != 0 {
			t.Fatalf("depth 1 must not emit arch spans, got %d", readouts)
		}
		if depth == 2 && readouts == 0 {
			t.Fatal("depth 2 must emit arch readout spans")
		}
	}
}

// TestReplicaFlightDisabled: depth 0 and nil recorders leave the replica
// untraced and untouched.
func TestReplicaFlightDisabled(t *testing.T) {
	a := loadedAccel(t, testutil.TinyMLP("flight-off"), 77, nil)
	r, err := a.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(flight.Config{Capacity: 16})
	r.AttachFlight(rec, 1, 0)
	r.AttachFlight(nil, 1, 2)
	r.Infer(testutil.FlatSamples(1, 9)[0].Input)
	if n := rec.Len(); n != 0 {
		t.Fatalf("disabled replica recorded %d spans", n)
	}
}

// TestTrainFlightSpans: the serial trainer replays its schedule into the
// recorder — forward/backward spans per stage per image, update spans per
// stage per batch — and tracing does not perturb training.
func TestTrainFlightSpans(t *testing.T) {
	samples := testutil.FlatSamples(4, 9)

	base := loadedAccel(t, testutil.TinyMLP("flight-train"), 11, nil)
	repWant, err := base.Train(samples, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	traced := loadedAccel(t, testutil.TinyMLP("flight-train"), 11, nil)
	rec := flight.New(flight.Config{Capacity: 1024})
	traced.SetFlight(rec)
	repGot, err := traced.Train(samples, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if repGot.MeanLoss != repWant.MeanLoss {
		t.Fatalf("tracing changed training: loss %g vs %g", repGot.MeanLoss, repWant.MeanLoss)
	}

	L := len(traced.engines)
	counts := map[string]int{}
	for _, e := range rec.Events() {
		counts[e.Name]++
		if e.Track < flightTrainTrackBase {
			t.Fatalf("training span on track %d, want >= %d: %+v", e.Track, flightTrainTrackBase, e)
		}
	}
	n := len(samples)
	if counts["core_stage_forward"] != n*L {
		t.Fatalf("%d forward spans, want %d", counts["core_stage_forward"], n*L)
	}
	if counts["core_stage_backward"] != n*L {
		t.Fatalf("%d backward spans, want %d", counts["core_stage_backward"], n*L)
	}
	if counts["core_stage_update"] != (n/2)*L {
		t.Fatalf("%d update spans, want %d", counts["core_stage_update"], (n/2)*L)
	}
}

// TestTrainPipelinedFlightSpans: the pipelined executor emits the same span
// census as the serial one — the Figure 6 schedule is fully attributed.
func TestTrainPipelinedFlightSpans(t *testing.T) {
	samples := testutil.FlatSamples(4, 9)
	a := loadedAccel(t, testutil.TinyMLP("flight-pipe"), 11, nil)
	rec := flight.New(flight.Config{Capacity: 1024})
	a.SetFlight(rec)
	if _, err := a.TrainPipelined(samples, 2, 0.05); err != nil {
		t.Fatal(err)
	}
	L := len(a.engines)
	counts := map[string]int{}
	for _, e := range rec.Events() {
		counts[e.Name]++
	}
	n := len(samples)
	if counts["core_stage_forward"] != n*L {
		t.Fatalf("%d forward spans, want %d", counts["core_stage_forward"], n*L)
	}
	// Backward decomposes into ErrLast + (L-1) chain ops + GradFirst = L+1
	// spans per image on an L-stage machine.
	if counts["core_stage_backward"] != n*(L+1) {
		t.Fatalf("%d backward spans, want %d", counts["core_stage_backward"], n*(L+1))
	}
	if counts["core_stage_update"] != (n/2)*L {
		t.Fatalf("%d update spans, want %d", counts["core_stage_update"], (n/2)*L)
	}
}
