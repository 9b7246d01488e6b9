package core

import (
	"math/rand"
	"testing"

	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
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
