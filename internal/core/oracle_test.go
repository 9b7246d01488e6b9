package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pipelayer/internal/fault"
	"pipelayer/internal/nn"
	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// The training datapath reads a conv plane with one batched readout and
// walks the backward kernels over raw slices. This file keeps the
// straightforward per-window and per-element formulations they replaced as
// an independent oracle: one single-vector MatVec per sliding window, and
// every tensor access through At/Set. Serving now shares MatVecCols with
// training, so without this oracle nothing would check the conv datapath
// against a second implementation.

// refConvForward reads the forward array once per sliding window.
func refConvForward(e *convEngine, x *tensor.Tensor) *tensor.Tensor {
	cols := tensor.Im2Col(x, e.k, e.k, e.stride, e.pad)
	oh, ow := e.outShape()
	nwin := oh * ow
	out := tensor.New(e.outC, oh, ow)
	vec := tensor.New(cols.Dim(0))
	for wdx := 0; wdx < nwin; wdx++ {
		for i := 0; i < cols.Dim(0); i++ {
			vec.Data()[i] = cols.At(i, wdx)
		}
		y := e.fwd.MatVec(vec)
		for c := 0; c < e.outC; c++ {
			v := y.At(c) + e.bias.At(c)
			if e.relu && v < 0 {
				v = 0
			}
			out.Data()[c*nwin+wdx] = v
		}
	}
	return out
}

// refConvPropagate drives the reordered-kernel arrays once per window of the
// error padded by K−1.
func refConvPropagate(e *convEngine, delta *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.outShape()
	padded := tensor.Pad2D(delta.Reshape(e.outC, oh, ow), e.k-1)
	cols := tensor.Im2Col(padded, e.k, e.k, 1, 0)
	fh := padded.Dim(1) - e.k + 1
	fw := padded.Dim(2) - e.k + 1
	nwin := fh * fw
	full := tensor.New(e.inC, fh, fw)
	vec := tensor.New(cols.Dim(0))
	for wdx := 0; wdx < nwin; wdx++ {
		for i := 0; i < cols.Dim(0); i++ {
			vec.Data()[i] = cols.At(i, wdx)
		}
		y := e.bwd.MatVec(vec)
		for c := 0; c < e.inC; c++ {
			full.Data()[c*nwin+wdx] = y.At(c)
		}
	}
	if e.pad > 0 {
		full = tensor.Crop2D(full, e.pad)
	}
	return full
}

// refConvDerivative is Figure 12's valid correlation of the padded input
// with the error, element by element.
func refConvDerivative(dPrev, delta *tensor.Tensor, k, pad int) *tensor.Tensor {
	inC, outC := dPrev.Dim(0), delta.Dim(0)
	oh, ow := delta.Dim(1), delta.Dim(2)
	x := tensor.Pad2D(dPrev, pad)
	dW := tensor.New(outC, inC, k, k)
	for o := 0; o < outC; o++ {
		for c := 0; c < inC; c++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					s := 0.0
					for y := 0; y < oh; y++ {
						for xx := 0; xx < ow; xx++ {
							s += x.At(c, y+ky, xx+kx) * delta.At(o, y, xx)
						}
					}
					dW.Set(s, o, c, ky, kx)
				}
			}
		}
	}
	return dW
}

// refPool takes each window's first maximum through At.
func refPool(e *poolEngine, x *tensor.Tensor) *tensor.Tensor {
	oh, ow := e.inH/e.k, e.inW/e.k
	out := tensor.New(e.inC, oh, ow)
	for c := 0; c < e.inC; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := x.At(c, oy*e.k, ox*e.k)
				for ky := 0; ky < e.k; ky++ {
					for kx := 0; kx < e.k; kx++ {
						if v := x.At(c, oy*e.k+ky, ox*e.k+kx); v > best {
							best = v
						}
					}
				}
				out.Set(best, c, oy, ox)
			}
		}
	}
	return out
}

// refMaxPoolBackward routes each error to its window's first maximum.
func refMaxPoolBackward(delta, dPrev *tensor.Tensor, k int) *tensor.Tensor {
	c, oh, ow := delta.Dim(0), delta.Dim(1), delta.Dim(2)
	out := tensor.New(c, oh*k, ow*k)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestY, bestX := oy*k, ox*k
				best := dPrev.At(ci, bestY, bestX)
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						if v := dPrev.At(ci, oy*k+ky, ox*k+kx); v > best {
							best, bestY, bestX = v, oy*k+ky, ox*k+kx
						}
					}
				}
				out.Set(delta.At(ci, oy, ox), ci, bestY, bestX)
			}
		}
	}
	return out
}

// refGrads accumulates one stage's ∂W/∂b the way the replaced code did: a
// freshly computed derivative tensor added into the running buffers.
type refGrads struct{ w, b *tensor.Tensor }

func (g *refGrads) accumulate(e layerEngine, delta, input *tensor.Tensor) {
	switch e := e.(type) {
	case *convEngine:
		oh, ow := e.outShape()
		d := delta.Reshape(e.outC, oh, ow)
		for c := 0; c < e.outC; c++ {
			s := 0.0
			for _, v := range d.Data()[c*oh*ow : (c+1)*oh*ow] {
				s += v
			}
			g.b.Data()[c] += s
		}
		g.w.AddInPlace(refConvDerivative(input.Reshape(e.inC, e.inH, e.inW), d, e.k, e.pad))
	case *denseEngine:
		d := delta.Reshape(e.out)
		g.w.AddInPlace(tensor.Outer(d, input.Reshape(e.in)))
		g.b.AddInPlace(d)
	}
}

// sameBits reports whether two tensors have equal shapes and identical
// IEEE-754 bits (so +0 ≠ −0 and NaN payloads count).
func sameBits(a, b *tensor.Tensor) error {
	if fmt.Sprint(a.Shape()) != fmt.Sprint(b.Shape()) {
		return fmt.Errorf("shape %v, want %v", a.Shape(), b.Shape())
	}
	for i, v := range a.Data() {
		if w := b.Data()[i]; math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("element %d is %v (%#x), want %v (%#x)", i, v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}
	return nil
}

// TestTrainingDatapathMatchesOracle runs tiny-cnn images forward and back
// through every stage and checks, stage by stage, that the conv forward,
// the propagate half and the accumulated ∂W/∂b equal the per-window and
// per-element oracle bit for bit — at workers {1, 2, 7, GOMAXPROCS} × faults
// {none, remap, remap+degrade}, with drift aged into the faulty arrays.
func TestTrainingDatapathMatchesOracle(t *testing.T) {
	modes := []struct {
		name string
		cfg  *fault.Config
	}{
		{"none", nil},
		{"remap", &fault.Config{Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Drift: 0.05, Spares: 4}},
		{"remap+degrade", &fault.Config{Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Drift: 0.05, Spares: 4, Degrade: true}},
	}
	samples := testutil.ImageSamples(2, 9)
	for _, mode := range modes {
		for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(t *testing.T) {
				old := parallel.Workers()
				parallel.SetWorkers(workers)
				defer parallel.SetWorkers(old)
				var inj *fault.Injector
				if mode.cfg != nil {
					inj = fault.MustNew(*mode.cfg)
				}
				a := loadedAccel(t, testutil.TinyDeepCNN("oracle-cnn"), 5, inj)
				if inj != nil && inj.Counters().Injected == 0 {
					t.Fatal("no faults injected; the injector is not wired into the engines")
				}
				a.tickEngines(3)
				checkDatapathAgainstOracle(t, a, samples)
			})
		}
	}
}

func checkDatapathAgainstOracle(t *testing.T, a *Accelerator, samples []nn.Sample) {
	t.Helper()
	grads := make([]refGrads, len(a.engines))
	for i, e := range a.engines {
		if gw, gb := gradBuffers(e); gw != nil {
			grads[i] = refGrads{tensor.New(gw.Shape()...), tensor.New(gb.Shape()...)}
		}
	}
	for n, s := range samples {
		x := s.Input
		for i, e := range a.engines {
			var want *tensor.Tensor
			switch e := e.(type) {
			case *convEngine:
				want = refConvForward(e, x)
			case *poolEngine:
				want = refPool(e, x)
			}
			x = e.forward(x)
			if want != nil {
				if err := sameBits(x, want); err != nil {
					t.Fatalf("image %d stage %d forward: %v", n, i, err)
				}
			}
		}
		delta := a.loss.Grad(x, nn.OneHot(s.Label, a.spec.Classes))
		for i := len(a.engines) - 1; i >= 0; i-- {
			e := a.engines[i]
			in, out := e.buffered()
			d := e.maskError(delta, out)
			e.derivative(d, in)
			if grads[i].w != nil {
				grads[i].accumulate(e, d, in)
				gw, gb := gradBuffers(e)
				if err := sameBits(gw, grads[i].w); err != nil {
					t.Fatalf("image %d stage %d ∂W: %v", n, i, err)
				}
				if err := sameBits(gb, grads[i].b); err != nil {
					t.Fatalf("image %d stage %d ∂b: %v", n, i, err)
				}
			}
			if i == 0 {
				break
			}
			got := e.propagate(d, in)
			var want *tensor.Tensor
			switch e := e.(type) {
			case *convEngine:
				want = refConvPropagate(e, d)
			case *poolEngine:
				want = refMaxPoolBackward(d, in.Reshape(e.inC, e.inH, e.inW), e.k)
			}
			if want != nil {
				if err := sameBits(got, want); err != nil {
					t.Fatalf("image %d stage %d propagate: %v", n, i, err)
				}
			}
			delta = got
		}
	}
}

// gradBuffers returns a weighted stage's running ∂W and ∂b buffers.
func gradBuffers(e layerEngine) (w, b *tensor.Tensor) {
	switch e := e.(type) {
	case *convEngine:
		return e.gradW, e.gradB
	case *denseEngine:
		return e.gradW, e.gradB
	}
	return nil, nil
}
