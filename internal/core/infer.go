package core

import (
	"errors"
	"fmt"
	"slices"

	"pipelayer/internal/networks"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// Replica is a read-only inference view of a loaded accelerator: it runs
// the accelerator's own stateless layer engines over the shared programmed
// arrays (the Section 3.2.3 weight replication, as Test's fan-out does), so
// independent replicas serve requests concurrently. A single Replica is not
// safe for concurrent use — give each serving goroutine its own.
type Replica struct {
	engines []layerEngine
	spec    networks.Spec

	// flightRec/flightTrack attribute per-layer forward spans to this
	// replica's timeline row (see AttachFlight); nil means no tracing.
	flightRec   *flight.Recorder
	flightTrack uint64
}

// NewReplica returns an inference replica over the accelerator's engines.
// The accelerator must have weights loaded; faults, if attached, stay wired
// into the shared arrays, so replicas see exactly the device the trainer saw.
func (a *Accelerator) NewReplica() (*Replica, error) {
	if !a.loaded {
		return nil, errors.New("core: NewReplica before Weight_load")
	}
	return &Replica{engines: slices.Clone(a.engines), spec: a.spec}, nil
}

// Spec returns the network geometry the replica serves.
func (r *Replica) Spec() networks.Spec { return r.spec }

// Engines returns the number of layer engines in the replica's stack —
// the granularity shard planning partitions over.
func (r *Replica) Engines() int { return len(r.engines) }

// ForwardCosts returns the analytic forward cost (MAC-equivalents) of each
// layer engine, in stack order. Shard planning uses these weights to balance
// contiguous layer ranges when no measured telemetry is available.
func (r *Replica) ForwardCosts() []float64 {
	costs := make([]float64, len(r.engines))
	for i, e := range r.engines {
		costs[i] = e.forwardCost()
	}
	return costs
}

// Sub returns a replica covering only engines [lo, hi): the building block
// for layer-range sharding. It runs its parent's engines, and so the same
// programmed arrays and fault state, from an engine list of its own that
// AttachFlight may rewrite. The sub-replica keeps the full network spec; its
// Infer/InferBatch accept the output shape of engine lo-1 and produce the
// output of engine hi-1.
func (r *Replica) Sub(lo, hi int) (*Replica, error) {
	if lo < 0 || hi > len(r.engines) || lo >= hi {
		return nil, fmt.Errorf("core: Sub range [%d,%d) outside engine stack of %d", lo, hi, len(r.engines))
	}
	return &Replica{engines: slices.Clone(r.engines[lo:hi]), spec: r.spec}, nil
}

// Forward runs a batch through the replica and never errors; it is the
// call a shard chain's stage makes on each of its replicas.
func (r *Replica) Forward(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return r.InferBatch(xs), nil
}

// Spec returns the configured network geometry (zero value before
// Topology_set).
func (a *Accelerator) Spec() networks.Spec { return a.spec }

// Infer runs one input through the replica: the batch of one, whose weighted
// stages each make a one-column readout.
func (r *Replica) Infer(x *tensor.Tensor) *tensor.Tensor {
	return r.InferBatch([]*tensor.Tensor{x})[0]
}

// InferBatch runs a batch of independent inputs through the batched readout
// path: each weighted stage performs one multi-column crossbar readout for
// the whole batch instead of a readout per sample. Element i of the result
// is bit-identical to Infer(xs[i]) — the batched kernel's contract — so
// callers may freely mix the two.
func (r *Replica) InferBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	if len(xs) == 0 {
		return nil
	}
	for i, e := range r.engines {
		t0 := r.flightRec.Now()
		xs = e.forward(xs)
		r.flightRec.Record("core_layer_forward", 0, r.flightTrack, t0, int64(i))
	}
	return xs
}
