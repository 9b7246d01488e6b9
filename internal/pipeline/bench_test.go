package pipeline

import "testing"

var simSink Result

// BenchmarkSimulate times one whole simulation at two shapes: the per-Step
// simulation the online trainer runs while a registry is attached (L=2, B=8,
// N=256, sequential training) and the paper's Figure 6 window (L=3, B=4,
// one batch, pipelined). Run with -benchmem.
func BenchmarkSimulate(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"step-L2-B8-N256-seq", Config{L: 2, B: 8, N: 256, Training: true}},
		{"fig6-L3-B4-N4-pipe", Config{L: 3, B: 4, N: 4, Pipelined: true, Training: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				simSink = Simulate(bc.cfg)
			}
		})
	}
}
