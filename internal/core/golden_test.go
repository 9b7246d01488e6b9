//go:build amd64 && !amd64.v3

// The constants below are the plain amd64 bits. Targets that may fuse a
// multiply and an add into one rounding (arm64, ppc64, s390x, amd64.v3+)
// legitimately produce other bits, so the file builds only where the
// recorded arithmetic is the arithmetic that runs.

package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pipelayer/internal/energy"
	"pipelayer/internal/fault"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// goldenFaults turns on every fault mechanism the trainers must carry
// through unchanged: stuck cells, spare-column remap, digital degrade,
// conductance drift and periodic refresh.
var goldenFaults = fault.Config{
	Seed: 3, StuckOff: 2e-4, StuckOn: 1e-4, Spares: 4, Degrade: true,
	Drift: 0.05, Refresh: 5,
}

// weightsDigest is FNV-1a over the shape and IEEE-754 bits of every tensor.
func weightsDigest(ws []*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range ws {
		for _, d := range w.Shape() {
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			h.Write(buf[:])
		}
		for _, v := range w.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestTrainingGoldenBits pins the absolute result of training — not just the
// agreement of one executor with another — so a change made identically to
// both executors still has to reproduce the recorded weights and loss.
// Three batches of 8 through each executor, fault-free and faulty.
func TestTrainingGoldenBits(t *testing.T) {
	type golden struct {
		digest   uint64
		lossBits uint64
	}
	cases := []struct {
		name      string
		spec      networks.Spec
		samples   []nn.Sample
		faults    bool
		pipelined bool
		want      golden
	}{
		{"mlp/serial", testutil.TinyMLP("golden-mlp"), testutil.FlatSamples(24, 8), false, false, golden{0xee40d2ebf488a6a, 0x40049752a2afd70c}},
		{"mlp/pipelined", testutil.TinyMLP("golden-mlp"), testutil.FlatSamples(24, 8), false, true, golden{0xee40d2ebf488a6a, 0x40049752a2afd70c}},
		{"mlp/faults/serial", testutil.TinyMLP("golden-mlp"), testutil.FlatSamples(24, 8), true, false, golden{0xf972b453ddd30c40, 0x40047f5c04b46315}},
		{"mlp/faults/pipelined", testutil.TinyMLP("golden-mlp"), testutil.FlatSamples(24, 8), true, true, golden{0xf66b8046ccdf7d8a, 0x400474d1f3c6c1ef}},
		{"cnn/serial", testutil.TinyDeepCNN("golden-cnn"), testutil.ImageSamples(24, 9), false, false, golden{0xe58dfe56845f621b, 0x4002afbbce3cb382}},
		{"cnn/pipelined", testutil.TinyDeepCNN("golden-cnn"), testutil.ImageSamples(24, 9), false, true, golden{0xe58dfe56845f621b, 0x4002afbbce3cb382}},
		{"cnn/faults/serial", testutil.TinyDeepCNN("golden-cnn"), testutil.ImageSamples(24, 9), true, false, golden{0xc369c9ad7eea7da7, 0x4002a5186895f729}},
		{"cnn/faults/pipelined", testutil.TinyDeepCNN("golden-cnn"), testutil.ImageSamples(24, 9), true, true, golden{0x888e7a816aeac39d, 0x4002a31125f7c9e4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var inj *fault.Injector
			if tc.faults {
				inj = fault.MustNew(goldenFaults)
			}
			a := loadedAccel(t, tc.spec, 77, inj)
			train := a.Train
			if tc.pipelined {
				train = a.TrainPipelined
			}
			rep, err := train(tc.samples, 8, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults && inj.Counters().Injected == 0 {
				t.Fatal("no faults injected; the injector is not wired into the engines")
			}
			got := golden{weightsDigest(a.WeightsSnapshot()), math.Float64bits(rep.MeanLoss)}
			if got != tc.want {
				t.Errorf("weights digest %#x, loss bits %#x (%.17g); want %#x, %#x (%.17g)",
					got.digest, got.lossBits, rep.MeanLoss,
					tc.want.digest, tc.want.lossBits, math.Float64frombits(tc.want.lossBits))
			}
		})
	}
}

// TestInferenceGoldenBits pins analog inference to absolute bits, through
// both replica paths (Infer and InferBatch): the zoo's Mnist-A and Mnist-0,
// the sigmoid LUT stage, average pooling and a stride-2 conv, at 4 and 16
// spike bits, eight inputs each. The constants are the output digests of
// the arch package's former stand-alone inference Machine on the same
// weights and inputs, so the lowering of every layer kind it handled is
// held to its bits.
func TestInferenceGoldenBits(t *testing.T) {
	cases := []struct {
		name   string
		spec   networks.Spec
		flat   bool
		digest map[int]uint64 // by spike bits
	}{
		{"mnist-a", networks.MnistA(), true, map[int]uint64{4: 0xf04c56098d8740b3, 16: 0x7a1707a24a18008f}},
		{"mnist-0", networks.Mnist0(), false, map[int]uint64{4: 0x7ef3174a9d76ec69, 16: 0x48423487af88ec63}},
		{"sigmoid-mlp", testutil.SigmoidMLP("sig-mlp"), true, map[int]uint64{4: 0xbc84bffdbd9d8234, 16: 0x87b2f0a4b1df6e13}},
		{"avgpool-cnn", testutil.AvgPoolCNN("avg-cnn"), false, map[int]uint64{4: 0xbc8aca09bd8235e, 16: 0xb894c8cb65ca5fb5}},
		{"stride-cnn", strideSpec(), false, map[int]uint64{4: 0xc27939e1f7a523cb, 16: 0xd783fafb0d6e7bac}},
	}
	for _, tc := range cases {
		samples := testutil.ImageSamples(8, 23)
		if tc.flat {
			samples = testutil.FlatSamples(8, 23)
		}
		xs := make([]*tensor.Tensor, len(samples))
		for i, s := range samples {
			xs[i] = s.Input
		}
		for _, bits := range []int{4, 16} {
			t.Run(fmt.Sprintf("%s/bits=%d", tc.name, bits), func(t *testing.T) {
				model := energy.DefaultModel()
				model.SpikeBits = bits
				net := networks.BuildTrainable(tc.spec, rand.New(rand.NewSource(19)))
				a, err := NewFromSnapshot(model, tc.spec, 1, net)
				if err != nil {
					t.Fatal(err)
				}
				r, err := a.NewReplica()
				if err != nil {
					t.Fatal(err)
				}
				serial := make([]*tensor.Tensor, len(xs))
				for i, x := range xs {
					serial[i] = r.Infer(x)
				}
				want := tc.digest[bits]
				if got := weightsDigest(serial); got != want {
					t.Errorf("Infer digest %#x, want %#x", got, want)
				}
				if got := weightsDigest(r.InferBatch(xs)); got != want {
					t.Errorf("InferBatch digest %#x, want %#x", got, want)
				}
			})
		}
	}
}
