package core

import (
	"fmt"

	"pipelayer/internal/telemetry/flight"
)

// flightTrainTrackBase offsets the training-stage timeline rows so they
// never collide with the serving replicas' tracks (serving uses 0..R) when
// one process records both — pipelayer-serve trains its toy model before
// serving it.
const flightTrainTrackBase uint64 = 100

// SetFlight attaches a flight recorder to the accelerator's training
// executors: Train and TrainPipelined then emit one span per scheduled
// operation — forward/backward/update per stage, attributed to the image
// ordinal — which is the paper's Figure 6 schedule replayed from the live
// machine instead of the cycle simulator. A nil recorder (the default)
// disables tracing at the cost of one pointer test per operation.
//
// The accelerator never reads wall-clock time itself: timestamps come from
// the recorder's injected clock, keeping this package clean under the
// nondeterminism analyzer.
func (a *Accelerator) SetFlight(rec *flight.Recorder) {
	a.flight = rec
	if rec == nil {
		return
	}
	for i := range a.engines {
		rec.SetTrackName(flightTrainTrackBase+uint64(i), fmt.Sprintf("stage %d", i))
	}
}

// AttachFlight wires a flight recorder into the replica's inference path.
// track is the replica's timeline row (serving uses worker index + 1, since
// track 0 is reserved for request-scoped spans). depth selects how deep the
// instrumentation reaches:
//
//	depth <= 0: no spans (equivalent to a nil recorder)
//	depth == 1: one core_layer_forward span per layer per Infer/InferBatch
//	depth >= 2: additionally one arch_readout_cols span per crossbar
//	            readout, via traced shallow clones of the weighted engines
//	            and their quantized arrays (programmed codes stay shared);
//	            the clones replace entries of this replica's own engine
//	            list, so its parent and siblings stay untraced
func (r *Replica) AttachFlight(rec *flight.Recorder, track uint64, depth int) {
	if rec == nil || depth <= 0 {
		return
	}
	r.flightRec = rec
	r.flightTrack = track
	if depth >= 2 {
		for i, e := range r.engines {
			r.engines[i] = e.withFlight(rec, track)
		}
	}
}
