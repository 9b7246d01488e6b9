package core

import (
	"math/rand"
	"strconv"
	"testing"

	"pipelayer/internal/dataset"
	"pipelayer/internal/networks"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
)

// metricsAccel builds a loaded Mnist-A accelerator (2 stages: 784→100 ReLU,
// 100→10) with a fresh registry attached.
func metricsAccel(t *testing.T) (*Accelerator, *telemetry.Registry) {
	t.Helper()
	a := newAccel()
	if err := a.TopologySet(networks.MnistA(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(11))); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	a.SetMetrics(reg)
	return a, reg
}

func TestTrainRecordsStageSpansAndWeightWrites(t *testing.T) {
	a, reg := metricsAccel(t)
	train, _ := dataset.TrainTest(8, 1, dataset.DefaultOptions(true), 21)
	if _, err := a.Train(train, 4, 0.05); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	// 8 images through 2 stages: 8 forward and 8 backward timings per
	// stage; 2 batches: 2 updates per stage.
	for _, stage := range []string{"1", "2"} {
		fwd := s.Spans[`core_stage_forward_seconds{stage="`+stage+`"}`]
		bwd := s.Spans[`core_stage_backward_seconds{stage="`+stage+`"}`]
		upd := s.Spans[`core_stage_update_seconds{stage="`+stage+`"}`]
		if fwd.Count != 8 || bwd.Count != 8 || upd.Count != 2 {
			t.Fatalf("stage %s spans: fwd=%d bwd=%d upd=%d, want 8/8/2", stage, fwd.Count, bwd.Count, upd.Count)
		}
		if fwd.TotalSeconds < 0 || upd.MeanSeconds < 0 {
			t.Fatalf("stage %s negative span totals: %+v %+v", stage, fwd, upd)
		}
	}
	// Weight-write counters: stage 1 is 784×100 + 100 cells per update,
	// stage 2 is 100×10 + 10, two updates each.
	if got := s.Counters[`core_weight_writes_total{stage="1"}`]; got != 2*(784*100+100) {
		t.Fatalf("stage 1 weight writes = %d", got)
	}
	if got := s.Counters[`core_weight_writes_total{stage="2"}`]; got != 2*(100*10+10) {
		t.Fatalf("stage 2 weight writes = %d", got)
	}
	if got := s.Counters[`core_weight_updates_total{stage="1"}`]; got != 2 {
		t.Fatalf("stage 1 updates = %d", got)
	}
	if s.Counters["core_train_images_total"] != 8 {
		t.Fatalf("train image counter = %d", s.Counters["core_train_images_total"])
	}
	// The embedded timing simulation published the pipeline gauges.
	if s.Gauges["pipeline_unit_utilization"] <= 0 {
		t.Fatalf("pipeline utilization gauge missing: %v", s.Gauges)
	}
}

func TestTrainPipelinedRecordsSameCounts(t *testing.T) {
	a, reg := metricsAccel(t)
	if err := a.PipelineSet(true); err != nil {
		t.Fatal(err)
	}
	train, _ := dataset.TrainTest(8, 1, dataset.DefaultOptions(true), 21)
	if _, err := a.TrainPipelined(train, 4, 0.05); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	// The pipelined executor runs 8 forward timings per stage and, per
	// image, L+1 = 3 error ops (ErrLast and the l=1 ErrChain both run on
	// stage 2's error arrays; GradFirst on stage 1's): 8 and 16 backward
	// timings, plus 2 updates per stage.
	if got := s.Spans[`core_stage_forward_seconds{stage="1"}`].Count; got != 8 {
		t.Fatalf("stage 1 forward count = %d", got)
	}
	if got := s.Spans[`core_stage_forward_seconds{stage="2"}`].Count; got != 8 {
		t.Fatalf("stage 2 forward count = %d", got)
	}
	if got := s.Spans[`core_stage_backward_seconds{stage="1"}`].Count; got != 8 {
		t.Fatalf("stage 1 backward count = %d, want 8 (GradFirst)", got)
	}
	if got := s.Spans[`core_stage_backward_seconds{stage="2"}`].Count; got != 16 {
		t.Fatalf("stage 2 backward count = %d, want 16 (ErrLast + ErrChain)", got)
	}
	if got := s.Counters[`core_weight_updates_total{stage="2"}`]; got != 2 {
		t.Fatalf("stage 2 updates = %d", got)
	}
}

// TestStageSpansMatchFlightEvents: with a registry and a recorder attached,
// each stage operation's two boundaries are read once, on the recorder's
// clock, and serve both its span and its event. So under either executor
// every stage's core_stage_{forward,backward,update}_seconds span equals
// that stage's core_stage_* events exactly, in count and in nanoseconds.
func TestStageSpansMatchFlightEvents(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		name := "Train"
		if pipelined {
			name = "TrainPipelined"
		}
		t.Run(name, func(t *testing.T) {
			a, reg := metricsAccel(t)
			rec := flight.New(flight.Config{Capacity: 1 << 12})
			a.SetFlight(rec)
			run := a.Train
			if pipelined {
				if err := a.PipelineSet(true); err != nil {
					t.Fatal(err)
				}
				run = a.TrainPipelined
			}
			train, _ := dataset.TrainTest(8, 1, dataset.DefaultOptions(true), 21)
			if _, err := run(train, 4, 0.05); err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("recorder dropped %d events", rec.Dropped())
			}
			type total struct{ n, ns int64 }
			events := map[string]total{}
			for _, e := range rec.Events() {
				key := telemetry.Name(e.Name+"_seconds", map[string]string{"stage": strconv.Itoa(int(e.Arg) + 1)})
				tot := events[key]
				tot.n++
				tot.ns += e.Dur()
				events[key] = tot
			}
			for stage := 1; stage <= len(a.engines); stage++ {
				for _, op := range []string{"core_stage_forward", "core_stage_backward", "core_stage_update"} {
					key := telemetry.Name(op+"_seconds", map[string]string{"stage": strconv.Itoa(stage)})
					sp, ev := reg.Span(key), events[key]
					if ev.n == 0 {
						t.Fatalf("%s: no events recorded", key)
					}
					if sp.Count() != ev.n || int64(sp.Total()) != ev.ns {
						t.Errorf("%s: span %d timings, %d ns; events %d, %d ns", key, sp.Count(), int64(sp.Total()), ev.n, ev.ns)
					}
				}
			}
		})
	}
}

func TestTestRecordsForwardSpans(t *testing.T) {
	a, reg := metricsAccel(t)
	_, test := dataset.TrainTest(1, 6, dataset.DefaultOptions(true), 5)
	if _, err := a.Test(test); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Spans[`core_stage_forward_seconds{stage="1"}`].Count; got != 6 {
		t.Fatalf("forward span count = %d, want 6", got)
	}
	if s.Counters["core_test_images_total"] != 6 {
		t.Fatalf("test image counter = %d", s.Counters["core_test_images_total"])
	}
}

func TestMetricsDetachedRunsClean(t *testing.T) {
	a, reg := metricsAccel(t)
	a.SetMetrics(nil)
	if a.Metrics() != nil {
		t.Fatal("registry should be detached")
	}
	train, _ := dataset.TrainTest(4, 1, dataset.DefaultOptions(true), 7)
	if _, err := a.Train(train, 4, 0.05); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot(); len(got.Spans) != 0 {
		t.Fatalf("detached registry gained spans: %v", got.Spans)
	}
}

// TestTelemetryDoesNotChangeTraining pins the no-observer-effect property:
// attaching a registry must not alter the numerical result of training.
func TestTelemetryDoesNotChangeTraining(t *testing.T) {
	run := func(attach bool) float64 {
		a := newAccel()
		if err := a.TopologySet(networks.MnistA(), 1); err != nil {
			t.Fatal(err)
		}
		if err := a.WeightLoad(nil, rand.New(rand.NewSource(11))); err != nil {
			t.Fatal(err)
		}
		if attach {
			a.SetMetrics(telemetry.NewRegistry())
		}
		train, _ := dataset.TrainTest(8, 1, dataset.DefaultOptions(true), 21)
		rep, err := a.Train(train, 4, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanLoss
	}
	if plain, instrumented := run(false), run(true); plain != instrumented {
		t.Fatalf("telemetry changed training: %v vs %v", plain, instrumented)
	}
}
