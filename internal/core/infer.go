package core

import (
	"errors"
	"fmt"

	"pipelayer/internal/arch"
	"pipelayer/internal/networks"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// Replica is a read-only inference clone of a loaded accelerator: it shares
// the programmed crossbar arrays and master weights (the Section 3.2.3 weight
// replication, as Test's fan-out does) but owns its activation buffers, so
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

// NewReplica clones the accelerator's engine stack for inference. The
// accelerator must have weights loaded; faults, if attached, stay wired into
// the shared arrays, so replicas see exactly the device the trainer saw.
func (a *Accelerator) NewReplica() (*Replica, error) {
	if !a.loaded {
		return nil, errors.New("core: NewReplica before Weight_load")
	}
	engines := make([]layerEngine, len(a.engines))
	for i, e := range a.engines {
		engines[i] = e.cloneForInference()
	}
	return &Replica{engines: engines, spec: a.spec}, nil
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
// for layer-range sharding. Each engine is a fresh inference clone, so the
// sub-replica shares the programmed crossbar arrays (and any attached fault
// state) with its parent but owns private activation buffers — independent
// sub-replicas over disjoint ranges may run concurrently. The sub-replica
// keeps the full network spec; its Infer/InferBatch accept the output shape
// of engine lo-1 and produce the output of engine hi-1.
func (r *Replica) Sub(lo, hi int) (*Replica, error) {
	if lo < 0 || hi > len(r.engines) || lo >= hi {
		return nil, fmt.Errorf("core: Sub range [%d,%d) outside engine stack of %d", lo, hi, len(r.engines))
	}
	engines := make([]layerEngine, hi-lo)
	for i, e := range r.engines[lo:hi] {
		engines[i] = e.cloneForInference()
	}
	return &Replica{engines: engines, spec: r.spec}, nil
}

// Forward runs a batch through the replica and never errors; it exists so a
// bare Replica satisfies the serving backend contract alongside the sharded
// chain. A single-element batch takes the serial Infer path — bit-identical
// to InferBatch by the batched kernel's contract, and cheaper.
func (r *Replica) Forward(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 1 {
		return []*tensor.Tensor{r.Infer(xs[0])}, nil
	}
	return r.InferBatch(xs), nil
}

// Spec returns the configured network geometry (zero value before
// Topology_set).
func (a *Accelerator) Spec() networks.Spec { return a.spec }

// Infer runs one input through the serial single-request path — the same
// per-stage forward the training executors and Test use.
func (r *Replica) Infer(x *tensor.Tensor) *tensor.Tensor {
	for i, e := range r.engines {
		t0 := r.flightRec.Now()
		x = e.forward(x)
		r.flightRec.Record("core_layer_forward", 0, r.flightTrack, t0, int64(i))
	}
	return x
}

// InferBatch runs a batch of independent inputs through the batched readout
// path: each weighted stage performs one multi-column crossbar readout for
// the whole batch instead of a readout per sample. Element i of the result
// is bit-identical to Infer(xs[i]) — the batched kernel's contract — so
// callers may freely mix the two paths.
func (r *Replica) InferBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	if len(xs) == 0 {
		return nil
	}
	for i, e := range r.engines {
		t0 := r.flightRec.Now()
		xs = e.forwardBatch(xs)
		r.flightRec.Record("core_layer_forward", 0, r.flightTrack, t0, int64(i))
	}
	return xs
}

func (e *denseEngine) forwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	n := len(xs)
	y := e.fwd.MatVecColsConsume(arch.PackCols(xs)) // (out × n)
	yd := y.Data()
	bias := e.bias.Data()
	outs := make([]*tensor.Tensor, n)
	for c := range outs {
		o := tensor.New(e.out)
		od := o.Data()
		for j := 0; j < e.out; j++ {
			v := yd[j*n+c] + bias[j]
			// Same clamp as forward's Apply: v for v > 0, else literal 0.
			if e.relu && !(v > 0) {
				v = 0
			}
			od[j] = v
		}
		outs[c] = o
	}
	return outs
}

func (e *convEngine) forwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	oh, ow := e.outShape()
	nwin := oh * ow
	outs := make([]*tensor.Tensor, len(xs))
	// Im2Col already lays the windows out as columns with the shape
	// MatVecCols wants, and each window quantizes against its own absolute
	// maximum — exactly what the per-window MatVec loop in forward does — so
	// one batched readout covers the whole plane. The readout quantizes the
	// columns in place, so every image of the batch unrolls into the same
	// buffer. Its (outC × nwin) result is already the (outC, oh, ow)
	// plane's layout, so bias and ReLU apply in place too.
	cols := tensor.New(e.inC*e.k*e.k, nwin)
	for idx, x := range xs {
		tensor.Im2ColInto(cols, x, e.k, e.k, e.stride, e.pad)
		y := e.fwd.MatVecColsConsume(cols)
		yd := y.Data()
		for c := 0; c < e.outC; c++ {
			b := e.bias.At(c)
			for wdx := 0; wdx < nwin; wdx++ {
				v := yd[c*nwin+wdx] + b
				if e.relu && v < 0 {
					v = 0
				}
				yd[c*nwin+wdx] = v
			}
		}
		outs[idx] = y.Reshape(e.outC, oh, ow)
	}
	return outs
}

func (e *poolEngine) forwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(xs))
	for idx, x := range xs {
		outs[idx] = e.pool(x)
	}
	return outs
}

func (e *lutEngine) forwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(xs))
	for idx, x := range xs {
		outs[idx] = x.Map(e.lut.Lookup)
	}
	return outs
}
