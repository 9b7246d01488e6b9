package core

import (
	"math/rand"
	"testing"

	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// BenchmarkTrain measures the serial training executor end to end: 24 images
// per iteration in batches of 8 — forward, error backward, derivative
// accumulation and the per-batch weight update with array reprogramming.
func BenchmarkTrain(b *testing.B) {
	for _, bc := range []struct {
		name    string
		spec    networks.Spec
		samples []nn.Sample
	}{
		{"tiny-mlp", testutil.TinyMLP("bench-mlp"), testutil.FlatSamples(24, 8)},
		{"tiny-cnn", testutil.TinyDeepCNN("bench-cnn"), testutil.ImageSamples(24, 9)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := newAccel()
			if err := a.TopologySet(bc.spec, 1); err != nil {
				b.Fatal(err)
			}
			if err := a.WeightLoad(nil, rand.New(rand.NewSource(77))); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.Train(bc.samples, 8, 0.1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(bc.samples))/b.Elapsed().Seconds(), "img/s")
		})
	}
}

// BenchmarkUpdate measures the per-batch weight update alone: one op is one
// applyUpdate per weighted stage, the read–modify–write of the masters plus
// the reprogramming of every array. Each op starts from the gradients one
// batch of 8 images accumulates, restored outside the timer.
func BenchmarkUpdate(b *testing.B) {
	for _, bc := range []struct {
		name    string
		spec    networks.Spec
		samples []nn.Sample
	}{
		{"tiny-mlp", testutil.TinyMLP("bench-mlp"), testutil.FlatSamples(8, 8)},
		{"tiny-cnn", testutil.TinyDeepCNN("bench-cnn"), testutil.ImageSamples(8, 9)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			a := newAccel()
			if err := a.TopologySet(bc.spec, 1); err != nil {
				b.Fatal(err)
			}
			if err := a.WeightLoad(nil, rand.New(rand.NewSource(77))); err != nil {
				b.Fatal(err)
			}
			for _, s := range bc.samples {
				acts := a.forward(s.Input)
				delta := a.loss.Grad(acts[len(acts)-1], nn.OneHot(s.Label, bc.spec.Classes))
				for i := len(a.engines) - 1; i >= 0; i-- {
					delta = a.backward(nil, i, delta, acts[i], acts[i+1])
				}
			}
			var stages []*crossbars
			var grads []*tensor.Tensor
			for _, e := range a.engines {
				if c := crossbarsOf(e); c != nil {
					stages = append(stages, c)
					grads = append(grads, c.gradW.Clone(), c.gradB.Clone())
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, c := range stages {
					copy(c.gradW.Data(), grads[2*j].Data())
					copy(c.gradB.Data(), grads[2*j+1].Data())
				}
				b.StartTimer()
				for _, c := range stages {
					c.applyUpdate(0.1, len(bc.samples), a.update)
				}
			}
		})
	}
}
