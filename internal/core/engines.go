package core

import (
	"fmt"

	"pipelayer/internal/arch"
	"pipelayer/internal/fault"
	"pipelayer/internal/nn"
	"pipelayer/internal/reram"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// layerEngine is one analog pipeline stage with full training support:
// forward through the quantized crossbar model, error backward through the
// reordered-kernel arrays, gradient accumulation in buffers, and the
// hardware weight update.
//
// The backward path is split the way the hardware splits it (Section 4.3):
// maskError is the activation component ANDing a raw error with this
// stage's f′ (computed from its buffered output d_l), derivative
// accumulates this stage's partial derivatives from δ and the buffered
// input d_{l-1} (Figure 12), and propagate is the error-array pass Wᵀδ
// (Figure 11). errorBackward composes the last two; the first stage runs
// derivative alone, since nothing consumes its upstream error.
type layerEngine interface {
	forward(x *tensor.Tensor) *tensor.Tensor
	// buffered returns the stage's input and output saved by the last
	// forward — the d_{l-1} and d_l the serial executor's backward reads.
	buffered() (in, out *tensor.Tensor)
	// maskError applies this stage's activation derivative to a raw error,
	// using the buffered stage output.
	maskError(raw, output *tensor.Tensor) *tensor.Tensor
	// derivative accumulates this stage's gradients from (δ, buffered input).
	derivative(delta, input *tensor.Tensor)
	// propagate returns the raw upstream error of δ: Wᵀδ through the error
	// arrays, or for pooling δ routed to the buffered input's window maxima.
	propagate(delta, input *tensor.Tensor) *tensor.Tensor
	applyUpdate(lr float64, batch int, u *arch.UpdateUnit)
	// weights returns the stage's master parameter tensors (empty for
	// weight-free stages), for snapshotting and verification.
	weights() []*tensor.Tensor
	// cloneForInference returns an engine sharing the programmed arrays and
	// master weights but owning private activation buffers (lastIn/lastOut),
	// so independent images can stream through concurrently — the weight
	// replication of Section 3.2.3 applied to Test throughput. Clones must
	// only run forward.
	cloneForInference() layerEngine
	// forwardBatch runs a batch of independent inputs through the stage in
	// one readout pass. Element i of the result is bit-identical to
	// forward(xs[i]); unlike forward it never touches the lastIn/lastOut
	// training buffers, so it is safe on shared clones and needs no
	// per-request buffer copies.
	forwardBatch(xs []*tensor.Tensor) []*tensor.Tensor
	// tick advances the drift age of the stage's arrays by n compute
	// cycles; no-op without an attached fault injector. Serial callers only.
	tick(n int64)
	// reprogram rewrites the stage's arrays from the float masters — the
	// drift-refresh tolerance mechanism.
	reprogram()
	// withFlight returns an engine whose forward crossbar records its
	// readouts as flight spans on the given track (depth-2 tracing). The
	// programmed codes stay shared; weight-free stages return themselves.
	withFlight(rec *flight.Recorder, track uint64) layerEngine
	// forwardCost is the stage's analytic forward work in MAC-equivalents —
	// the balance weight shard planning falls back to when no measured
	// per-stage telemetry is available.
	forwardCost() float64
}

// buildEngines lowers a float network onto analog layer engines. Supported
// sequence: Conv and Dense, each with a fused ReLU or followed by a Sigmoid
// LUT stage; MaxPool and AvgPool — every network BuildTrainable emits. A
// non-nil injector wires the fault model into every array: weighted stage s
// owns array ids 2s (forward) and 2s+1 (error-backward).
func buildEngines(net *nn.Network, bits int, inj *fault.Injector) ([]layerEngine, error) {
	var engines []layerEngine
	layers := net.Layers
	stage := uint64(0)
	// width is the element count of the last stage's output, the size of a
	// LUT stage that follows it.
	width := 0
	for i := 0; i < len(layers); i++ {
		switch l := layers[i].(type) {
		case *nn.Dense:
			relu := false
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					relu = true
					i++
				}
			}
			engines = append(engines, newDenseEngine(l, relu, bits, inj, stage))
			stage++
			width = l.Out()
		case *nn.Conv:
			relu := false
			if i+1 < len(layers) {
				if _, ok := layers[i+1].(*nn.ReLU); ok {
					relu = true
					i++
				}
			}
			e := newConvEngine(l, relu, bits, inj, stage)
			engines = append(engines, e)
			stage++
			oh, ow := e.outShape()
			width = e.outC * oh * ow
		case *nn.MaxPool:
			inC, inH, inW, k := l.Geometry()
			engines = append(engines, &poolEngine{inC: inC, inH: inH, inW: inW, k: k})
			width = inC * (inH / k) * (inW / k)
		case *nn.AvgPool:
			inC, inH, inW, k := l.Geometry()
			engines = append(engines, &poolEngine{inC: inC, inH: inH, inW: inW, k: k, avg: true})
			width = inC * (inH / k) * (inW / k)
		case *nn.Sigmoid:
			// The configurable LUT of Section 4.2.3 realizes the sigmoid.
			engines = append(engines, &lutEngine{lut: reram.SigmoidLUT(4096), n: width})
		default:
			return nil, fmt.Errorf("core: unsupported layer type %T", l)
		}
	}
	return engines, nil
}

// crossbars is what a weighted stage keeps for its arrays: the float master
// kernel bank W of shape (outC, inC, k, k), its bias and gradient buffers,
// and the forward and error-backward array pairs programmed from W (Section
// 4.3). A dense stage's (out, in) matrix is the k = 1 case, whose error
// arrays hold Wᵀ. The arrays are created once and reprogrammed in place
// thereafter, so fault state (stuck maps, wear counters, remap tables, drift
// age) persists across the per-batch updates exactly as physical silicon
// would.
type crossbars struct {
	k    int
	w    *tensor.Tensor // float master copy (host shadow of the arrays)
	bias *tensor.Tensor
	fwd  *arch.Quantized // rows=inC·k·k, cols=outC
	bwd  *arch.Quantized // rows=outC·k·k, cols=inC (reordered kernels)
	// absMax is w.AbsMax(). Only construction and applyUpdate write the
	// master, and both set it, so an update reads its scale here instead of
	// rescanning W.
	absMax float64

	gradW *tensor.Tensor
	gradB *tensor.Tensor

	inj *fault.Injector
}

// newCrossbars copies a layer's parameters into a stage's masters and
// programs its arrays. A non-nil injector wires the fault model into both:
// weighted stage s owns array ids 2s (forward) and 2s+1 (error-backward).
func newCrossbars(w, bias *tensor.Tensor, k, bits int, inj *fault.Injector, stage uint64) crossbars {
	c := crossbars{
		k: k, w: w.Clone(), bias: bias.Clone(),
		gradW: tensor.New(w.Shape()...), gradB: tensor.New(bias.Shape()...),
		inj: inj,
	}
	c.absMax = c.w.AbsMax()
	c.fwd, c.bwd = arch.NewKernelArrays(c.w, c.absMax, k, bits)
	if inj != nil {
		c.fwd.AttachFaults(inj, 2*stage)
		c.bwd.AttachFaults(inj, 2*stage+1)
	}
	return c
}

func (c *crossbars) tick(n int64) {
	if c.inj != nil {
		c.fwd.Tick(n)
		c.bwd.Tick(n)
	}
}

// reprogram rewrites both array pairs from the unchanged masters.
func (c *crossbars) reprogram() { arch.ProgramKernels(c.fwd, c.bwd, c.w, c.absMax, c.k) }

func (c *crossbars) weights() []*tensor.Tensor { return []*tensor.Tensor{c.w, c.bias} }

// applyUpdate is the Section 4.4 read–modify–write in two passes over the
// master, both on the caller's goroutine: Update writes the new weights,
// clears ∂W and returns the weights' AbsMax, and ProgramKernels computes
// each weight's code once and writes every array layout. Bias registers
// update digitally (the paper keeps bias in the extra word line; the
// averaged gradient applies the same way).
func (c *crossbars) applyUpdate(lr float64, batch int, u *arch.UpdateUnit) {
	scale := c.absMax * 2
	if scale == 0 {
		scale = 1
	}
	c.absMax = u.Update(c.w, c.gradW, lr, batch, scale)
	c.bias.AxpyInPlace(-lr/float64(batch), c.gradB)
	c.gradB.Zero()
	arch.ProgramKernels(c.fwd, c.bwd, c.w, c.absMax, c.k)
}

// denseEngine is an inner-product stage: a forward array pair (in×out) and
// an error-backward array pair holding Wᵀ (out×in), per Section 4.3.
type denseEngine struct {
	in, out int
	relu    bool
	crossbars

	lastIn  *tensor.Tensor
	lastOut *tensor.Tensor
}

func newDenseEngine(l *nn.Dense, relu bool, bits int, inj *fault.Injector, stage uint64) *denseEngine {
	return &denseEngine{
		in: l.In(), out: l.Out(), relu: relu,
		crossbars: newCrossbars(l.Weights().Value, l.Bias().Value, 1, bits, inj, stage), // W is (out, in)
	}
}

func (e *denseEngine) cloneForInference() layerEngine { c := *e; return &c }

func (e *denseEngine) forwardCost() float64 { return float64(e.in) * float64(e.out) }

func (e *denseEngine) withFlight(rec *flight.Recorder, track uint64) layerEngine {
	c := *e
	c.fwd = e.fwd.WithFlight(rec, track)
	return &c
}

func (e *denseEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	flat := x.Reshape(e.in)
	e.lastIn = flat.Clone()
	y := e.fwd.MatVec(flat)
	y.AddInPlace(e.bias)
	if e.relu {
		y.Apply(func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		})
	}
	e.lastOut = y.Clone()
	return y
}

func (e *denseEngine) buffered() (in, out *tensor.Tensor) { return e.lastIn, e.lastOut }

func (e *denseEngine) maskError(raw, output *tensor.Tensor) *tensor.Tensor {
	if !e.relu {
		return raw
	}
	return arch.ReluBackward(raw.Reshape(e.out), output.Reshape(e.out))
}

func (e *denseEngine) derivative(delta, input *tensor.Tensor) {
	d := delta.Reshape(e.out)
	x := input.Reshape(e.in).Data()
	// ∂W = δ·d_{l-1}ᵀ and ∂b = δ accumulate in the gradient buffers. The
	// explicit conversion rounds each product before the add even where the
	// compiler would fuse the two, so ∂W sums the same rounded products on
	// every target.
	g := e.gradW.Data()
	for j, dj := range d.Data() {
		row := g[j*e.in : (j+1)*e.in : (j+1)*e.in]
		for i, xi := range x {
			row[i] += float64(dj * xi)
		}
	}
	e.gradB.AddInPlace(d)
}

// propagate computes δ_{l-1} = Wᵀδ through the error array pair.
func (e *denseEngine) propagate(delta, _ *tensor.Tensor) *tensor.Tensor {
	return e.bwd.MatVec(delta.Reshape(e.out))
}

// convEngine is a convolution stage: a forward array pair holding the kernel
// matrix and an error array pair holding the reordered kernels (W)* of
// Figure 11; derivatives follow Figure 12 on the buffered d and δ.
type convEngine struct {
	inC, inH, inW, outC int
	stride, pad         int
	relu                bool
	crossbars

	lastIn  *tensor.Tensor
	lastOut *tensor.Tensor
}

func newConvEngine(l *nn.Conv, relu bool, bits int, inj *fault.Injector, stage uint64) *convEngine {
	inC, inH, inW, outC, k, stride, pad := l.Geometry()
	return &convEngine{
		inC: inC, inH: inH, inW: inW, outC: outC,
		stride: stride, pad: pad, relu: relu,
		crossbars: newCrossbars(l.Weights().Value, l.Bias().Value, k, bits, inj, stage),
	}
}

func (e *convEngine) cloneForInference() layerEngine { c := *e; return &c }

func (e *convEngine) forwardCost() float64 {
	oh, ow := e.outShape()
	return float64(e.outC) * float64(e.inC) * float64(e.k*e.k) * float64(oh*ow)
}

func (e *convEngine) withFlight(rec *flight.Recorder, track uint64) layerEngine {
	c := *e
	c.fwd = e.fwd.WithFlight(rec, track)
	return &c
}

// forward reads the whole Im2Col plane with one batched readout — the
// serving path's forwardBatch body — and buffers d_{l-1} and d_l for the
// backward pass.
func (e *convEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	e.lastIn = x.Clone()
	out := e.forwardBatch([]*tensor.Tensor{x})[0]
	e.lastOut = out.Clone()
	return out
}

func (e *convEngine) buffered() (in, out *tensor.Tensor) { return e.lastIn, e.lastOut }

func (e *convEngine) outShape() (int, int) {
	return tensor.ConvOutDim(e.inH, e.k, e.stride, e.pad), tensor.ConvOutDim(e.inW, e.k, e.stride, e.pad)
}

func (e *convEngine) maskError(raw, output *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.outShape()
	r := raw.Reshape(e.outC, oh, ow)
	if !e.relu {
		return r
	}
	return arch.ReluBackward(r, output.Reshape(e.outC, oh, ow))
}

func (e *convEngine) derivative(delta, input *tensor.Tensor) {
	oh, ow := e.outShape()
	d := delta.Reshape(e.outC, oh, ow)
	// ∂b and ∂W accumulate (Figure 12 — the buffered d acts as the kernel).
	for c := 0; c < e.outC; c++ {
		s := 0.0
		plane := d.Data()[c*oh*ow : (c+1)*oh*ow]
		for _, v := range plane {
			s += v
		}
		e.gradB.Data()[c] += s
	}
	e.gradW.AddInPlace(arch.ConvDerivative(input.Reshape(e.inC, e.inH, e.inW), d, e.k, e.pad))
}

// propagate computes δ_{l-1} = conv2(δ, rot180(K), 'full') through the error
// arrays: the im2col columns of the error zero-padded by K−1 drive the
// reordered-kernel array pair in one batched readout, and its (inC × windows)
// result is already the full-correlation plane's (inC, fh, fw) layout.
func (e *convEngine) propagate(delta, _ *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.outShape()
	cols := tensor.Im2Col(delta.Reshape(e.outC, oh, ow), e.k, e.k, 1, e.k-1)
	fh, fw := oh+e.k-1, ow+e.k-1
	full := e.bwd.MatVecColsConsume(cols).Reshape(e.inC, fh, fw)
	if e.pad > 0 {
		full = tensor.Crop2D(full, e.pad)
	}
	return full
}

// poolEngine is a pooling stage. Max pooling (the max register of Section
// 4.2.3) routes errors back to the stored window maxima (Figure 10b); average
// pooling (Equation 2) spreads each error over its window.
type poolEngine struct {
	inC, inH, inW, k int
	avg              bool
	weightless
	lastIn *tensor.Tensor
}

func (e *poolEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	e.lastIn = x.Clone()
	return e.pool(x)
}

// pool takes each k×k window's first maximum in row-major scan order, or
// for average pooling the window mean.
func (e *poolEngine) pool(x *tensor.Tensor) *tensor.Tensor {
	if x.Size() != e.inC*e.inH*e.inW {
		panic(fmt.Sprintf("core: pool input %v for a (%d,%d,%d) stage", x.Shape(), e.inC, e.inH, e.inW))
	}
	if e.avg {
		return e.mean(x)
	}
	oh, ow := e.inH/e.k, e.inW/e.k
	out := tensor.New(e.inC, oh, ow)
	xd, od := x.Data(), out.Data()
	for c := 0; c < e.inC; c++ {
		plane := xd[c*e.inH*e.inW : (c+1)*e.inH*e.inW]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				base := oy*e.k*e.inW + ox*e.k
				best := plane[base]
				for ky := 0; ky < e.k; ky++ {
					row := plane[base+ky*e.inW : base+ky*e.inW+e.k]
					for _, v := range row {
						if v > best {
							best = v
						}
					}
				}
				od[(c*oh+oy)*ow+ox] = best
			}
		}
	}
	return out
}

// mean is Equation 2: each window's row-major sum times 1/K².
func (e *poolEngine) mean(x *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.inH/e.k, e.inW/e.k
	out := tensor.New(e.inC, oh, ow)
	xd, od := x.Data(), out.Data()
	inv := 1.0 / float64(e.k*e.k)
	for c := 0; c < e.inC; c++ {
		plane := xd[c*e.inH*e.inW : (c+1)*e.inH*e.inW]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				base := oy*e.k*e.inW + ox*e.k
				s := 0.0
				for ky := 0; ky < e.k; ky++ {
					for _, v := range plane[base+ky*e.inW : base+ky*e.inW+e.k] {
						s += v
					}
				}
				od[(c*oh+oy)*ow+ox] = s * inv
			}
		}
	}
	return out
}

func (e *poolEngine) buffered() (in, out *tensor.Tensor) { return e.lastIn, nil }

func (e *poolEngine) maskError(raw, _ *tensor.Tensor) *tensor.Tensor {
	return raw.Reshape(e.inC, e.inH/e.k, e.inW/e.k)
}

func (e *poolEngine) propagate(delta, input *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.inH/e.k, e.inW/e.k
	d := delta.Reshape(e.inC, oh, ow)
	if !e.avg {
		return arch.MaxPoolBackward(d, input.Reshape(e.inC, e.inH, e.inW), e.k)
	}
	// Each error times 1/K² lands on every element of its window, as
	// nn.AvgPool.Backward accumulates it.
	out := tensor.New(e.inC, e.inH, e.inW)
	dd, od := d.Data(), out.Data()
	inv := 1.0 / float64(e.k*e.k)
	for c := 0; c < e.inC; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := dd[(c*oh+oy)*ow+ox] * inv
				base := (c*e.inH+oy*e.k)*e.inW + ox*e.k
				for ky := 0; ky < e.k; ky++ {
					row := od[base+ky*e.inW : base+ky*e.inW+e.k]
					for j := range row {
						row[j] += g
					}
				}
			}
		}
	}
	return out
}

func (e *poolEngine) cloneForInference() layerEngine { c := *e; return &c }

func (e *poolEngine) forwardCost() float64 { return float64(e.inC) * float64(e.inH) * float64(e.inW) }

func (e *poolEngine) withFlight(*flight.Recorder, uint64) layerEngine { return e }

// lutEngine is an elementwise activation stage through the activation
// component's configurable LUT (Section 4.2.3): the sigmoid. Backward masks
// the error with f′ = y(1−y) of the buffered output, the rule
// nn.Sigmoid.Backward applies.
type lutEngine struct {
	lut *reram.LUT
	n   int // elements per input
	weightless
	lastOut *tensor.Tensor
}

func (e *lutEngine) forward(x *tensor.Tensor) *tensor.Tensor {
	y := x.Map(e.lut.Lookup)
	e.lastOut = y.Clone()
	return y
}

func (e *lutEngine) buffered() (in, out *tensor.Tensor) { return nil, e.lastOut }

func (e *lutEngine) maskError(raw, output *tensor.Tensor) *tensor.Tensor {
	d := tensor.New(output.Shape()...)
	yd, dd := output.Data(), d.Data()
	for i, g := range raw.Data() {
		y := yd[i]
		dd[i] = g * y * (1 - y)
	}
	return d
}

func (e *lutEngine) propagate(delta, _ *tensor.Tensor) *tensor.Tensor { return delta }

func (e *lutEngine) cloneForInference() layerEngine { c := *e; return &c }

func (e *lutEngine) forwardCost() float64 { return float64(e.n) }

func (e *lutEngine) withFlight(*flight.Recorder, uint64) layerEngine { return e }

// weightless is the weight half of a stage without arrays: nothing to
// accumulate, update, age or reprogram.
type weightless struct{}

func (weightless) derivative(_, _ *tensor.Tensor) {}

func (weightless) applyUpdate(float64, int, *arch.UpdateUnit) {}

func (weightless) tick(int64) {}

func (weightless) reprogram() {}

func (weightless) weights() []*tensor.Tensor { return nil }

// errorBackward is one stage's error-array pass: accumulate its partial
// derivatives from (δ, buffered input), then return the raw upstream error.
func errorBackward(e layerEngine, delta, input *tensor.Tensor) *tensor.Tensor {
	e.derivative(delta, input)
	return e.propagate(delta, input)
}
