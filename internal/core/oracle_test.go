package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pipelayer/internal/arch"
	"pipelayer/internal/fault"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// The training datapath reads a conv plane, and a dense stage's one image,
// with one batched readout and walks the backward kernels over raw slices.
// This file keeps the straightforward per-window and per-element
// formulations they replaced as an independent oracle: one single-vector
// MatVec per sliding window or dense image, and every tensor access through
// At/Set. Serving shares MatVecCols with training, so without this oracle
// nothing would check the datapath against a second implementation.

// refDenseForward is the per-image dense forward the one-column readout
// replaced: a single-vector MatVec, the bias added in place, then the ReLU
// clamp to v for v > 0 and a literal 0 otherwise.
func refDenseForward(e *denseEngine, x *tensor.Tensor) *tensor.Tensor {
	y := e.fwd.MatVec(x.Reshape(e.in))
	y.AddInPlace(e.bias)
	if e.relu {
		y.Apply(func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		})
	}
	return y
}

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

// TestTrainingDatapathMatchesOracle runs tiny-cnn and tiny-mlp images
// forward and back through every stage and checks, stage by stage, that the
// conv, dense and pool forward, the propagate half and the accumulated
// ∂W/∂b equal the per-window, per-image and per-element oracle bit for bit.
// Around the images it checks the two-pass weight update, and the reprogram
// that shares its second pass, against the sequence they replaced, run on a
// twin accelerator (see checkUpdateAgainstOracle). All of it at workers
// {1, 2, 7, GOMAXPROCS} × faults {none, remap, remap+degrade, wear}, with
// drift aged into the faulty arrays.
func TestTrainingDatapathMatchesOracle(t *testing.T) {
	modes := []struct {
		name string
		cfg  *fault.Config
	}{
		{"none", nil},
		{"remap", &fault.Config{Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Drift: 0.05, Spares: 4}},
		{"remap+degrade", &fault.Config{Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Drift: 0.05, Spares: 4, Degrade: true}},
		// A cell's third write (the update's) wears it out, and transient
		// write failures exhaust their retry, so the reprogram and the update
		// remap, degrade and freeze cells through the fault model.
		{"wear", &fault.Config{Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Drift: 0.05, Spares: 4, Degrade: true, WriteFail: 0.02, Retries: 1, Endurance: 2}},
	}
	nets := []struct {
		name    string
		spec    networks.Spec
		seed    int64
		samples []nn.Sample
	}{
		{"cnn", testutil.TinyDeepCNN("oracle-cnn"), 5, testutil.ImageSamples(3, 9)},
		{"mlp", testutil.TinyMLP("oracle-mlp"), 77, testutil.FlatSamples(3, 9)},
	}
	for _, mode := range modes {
		for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(t *testing.T) {
				old := parallel.Workers()
				parallel.SetWorkers(workers)
				defer parallel.SetWorkers(old)
				for _, net := range nets {
					t.Run(net.name, func(t *testing.T) {
						a, inj := oracleAccel(t, net.spec, net.seed, mode.cfg)
						twin, twinInj := oracleAccel(t, net.spec, net.seed, mode.cfg)
						checkReprogramAgainstOracle(t, a, twin)
						a.tickEngines(3)
						twin.tickEngines(3)
						checkDatapathAgainstOracle(t, a, net.samples)
						checkUpdateAgainstOracle(t, a, twin, len(net.samples))
						if got, want := inj.Counters(), twinInj.Counters(); got != want {
							t.Fatalf("fault counters %+v, oracle %+v", got, want)
						}
					})
				}
			})
		}
	}
}

// oracleAccel loads spec from seed, with a fresh injector for cfg when it is
// non-nil.
func oracleAccel(t *testing.T, spec networks.Spec, seed int64, cfg *fault.Config) (*Accelerator, *fault.Injector) {
	t.Helper()
	var inj *fault.Injector
	if cfg != nil {
		inj = fault.MustNew(*cfg)
	}
	a := loadedAccel(t, spec, seed, inj)
	if inj != nil && inj.Counters().Injected == 0 {
		t.Fatal("no faults injected; the injector is not wired into the engines")
	}
	return a, inj
}

func checkDatapathAgainstOracle(t *testing.T, a *Accelerator, samples []nn.Sample) {
	t.Helper()
	grads := make([]refGrads, len(a.engines))
	for i, e := range a.engines {
		if c := crossbarsOf(e); c != nil {
			grads[i] = refGrads{tensor.New(c.gradW.Shape()...), tensor.New(c.gradB.Shape()...)}
		}
	}
	for n, s := range samples {
		acts := a.forward(s.Input)
		for i, e := range a.engines {
			var want *tensor.Tensor
			switch e := e.(type) {
			case *convEngine:
				want = refConvForward(e, acts[i])
			case *denseEngine:
				want = refDenseForward(e, acts[i])
			case *poolEngine:
				want = refPool(e, acts[i])
			}
			if want != nil {
				if err := sameBits(acts[i+1], want); err != nil {
					t.Fatalf("image %d stage %d forward: %v", n, i, err)
				}
			}
		}
		delta := a.loss.Grad(acts[len(acts)-1], nn.OneHot(s.Label, a.spec.Classes))
		for i := len(a.engines) - 1; i >= 0; i-- {
			e := a.engines[i]
			in, out := acts[i], acts[i+1]
			d := e.maskError(delta, out)
			e.derivative(d, in)
			if grads[i].w != nil {
				grads[i].accumulate(e, d, in)
				c := crossbarsOf(e)
				if err := sameBits(c.gradW, grads[i].w); err != nil {
					t.Fatalf("image %d stage %d ∂W: %v", n, i, err)
				}
				if err := sameBits(c.gradB, grads[i].b); err != nil {
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
			case *denseEngine:
				want = e.bwd.MatVec(d.Reshape(e.out))
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

// crossbarsOf returns a weighted stage's arrays and buffers, nil for a pool
// stage.
func crossbarsOf(e layerEngine) *crossbars {
	switch e := e.(type) {
	case *convEngine:
		return &e.crossbars
	case *denseEngine:
		return &e.crossbars
	}
	return nil
}

// refProgram is the array programming the two-pass update replaced: one
// Program per array of its transposed layout, for conv of the reordered
// kernels BackwardKernels builds, and for dense of Wᵀ's transpose, W itself.
func refProgram(c *crossbars) {
	outC, inC := c.w.Dim(0), c.w.Dim(1)
	c.fwd.Program(tensor.Transpose(c.w.Reshape(outC, c.w.Size()/outC)))
	if c.k == 1 {
		c.bwd.Program(c.w)
		return
	}
	back := arch.BackwardKernels(c.w).Reshape(inC, outC*c.k*c.k)
	c.bwd.Program(tensor.Transpose(back))
}

// refUpdate is the update sequence the two passes replaced: UpdateUnit.Apply
// on the master, its scale from a fresh AbsMax scan, then refProgram.
func refUpdate(c *crossbars, lr float64, batch int, u *arch.UpdateUnit) {
	scale := c.w.AbsMax() * 2
	if scale == 0 {
		scale = 1
	}
	u.Apply(c.w, c.gradW, lr, batch, scale)
	c.bias.AxpyInPlace(-lr/float64(batch), c.gradB)
	c.gradW.Zero()
	c.gradB.Zero()
	refProgram(c)
}

// checkReprogramAgainstOracle reprograms every weighted stage of a from its
// unchanged masters and the same stage of twin, built from the same seed and
// fault config, through refProgram, then compares the stages.
func checkReprogramAgainstOracle(t *testing.T, a, twin *Accelerator) {
	t.Helper()
	for i, e := range a.engines {
		if c := crossbarsOf(e); c != nil {
			e.reprogram()
			ref := crossbarsOf(twin.engines[i])
			refProgram(ref)
			if err := sameStage(c, ref); err != nil {
				t.Fatalf("stage %d after reprogram: %v", i, err)
			}
		}
	}
}

// checkUpdateAgainstOracle applies the two-pass update to every weighted
// stage of a and refUpdate to the same stage of twin, after copying a's
// accumulated gradients into it, and compares the stages bit for bit.
func checkUpdateAgainstOracle(t *testing.T, a, twin *Accelerator, batch int) {
	t.Helper()
	const lr = 0.1
	for i, e := range a.engines {
		c := crossbarsOf(e)
		if c == nil {
			continue
		}
		ref := crossbarsOf(twin.engines[i])
		copy(ref.gradW.Data(), c.gradW.Data())
		copy(ref.gradB.Data(), c.gradB.Data())
		e.applyUpdate(lr, batch, a.update)
		refUpdate(ref, lr, batch, twin.update)
		if err := sameStage(c, ref); err != nil {
			t.Fatalf("stage %d after update: %v", i, err)
		}
	}
}

// sameStage compares two weighted stages bit for bit: masters, biases,
// gradient buffers and both arrays.
func sameStage(got, want *crossbars) error {
	if err := sameBits(got.w, want.w); err != nil {
		return fmt.Errorf("master: %v", err)
	}
	if err := sameBits(got.bias, want.bias); err != nil {
		return fmt.Errorf("bias: %v", err)
	}
	if err := sameBits(got.gradW, want.gradW); err != nil {
		return fmt.Errorf("∂W buffer: %v", err)
	}
	if err := sameBits(got.gradB, want.gradB); err != nil {
		return fmt.Errorf("∂b buffer: %v", err)
	}
	if err := sameArray(got.fwd, want.fwd); err != nil {
		return fmt.Errorf("forward array: %v", err)
	}
	if err := sameArray(got.bwd, want.bwd); err != nil {
		return fmt.Errorf("error array: %v", err)
	}
	return nil
}

// sameArray compares two programmed arrays: every weight code, the scale,
// the column fault states, and the readout of a probe vector, which goes
// through the column-major mirror or the effective fault readout.
func sameArray(got, want *arch.Quantized) error {
	if math.Float64bits(got.Scale()) != math.Float64bits(want.Scale()) {
		return fmt.Errorf("scale %v, want %v", got.Scale(), want.Scale())
	}
	for r := 0; r < got.Rows; r++ {
		for c := 0; c < got.Cols; c++ {
			if g, w := got.WeightCode(r, c), want.WeightCode(r, c); g != w {
				return fmt.Errorf("code (%d,%d) is %d, want %d", r, c, g, w)
			}
		}
	}
	gs, ws := got.ColumnStates(), want.ColumnStates()
	for j := range gs {
		if gs[j] != ws[j] {
			return fmt.Errorf("column %d state %v, want %v", j, gs[j], ws[j])
		}
	}
	probe := tensor.New(got.Rows)
	for i := range probe.Data() {
		probe.Data()[i] = math.Sin(float64(i) + 1)
	}
	if err := sameBits(got.MatVec(probe), want.MatVec(probe)); err != nil {
		return fmt.Errorf("probe readout: %v", err)
	}
	return nil
}
