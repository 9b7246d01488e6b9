package networks

import (
	"fmt"
	"math/rand"

	"pipelayer/internal/mapping"
	"pipelayer/internal/nn"
)

// ValidateTrainable reports whether BuildTrainable can assemble s: a valid
// spec with at least one layer, whose pools all have window == stride. The
// ImageNet networks' overlapping pools pass Validate — they are simulated,
// not trained — so callers that build from a caller-supplied spec check
// this first and return its error instead of letting BuildTrainable panic.
func (s Spec) ValidateTrainable() error {
	if err := s.Validate(); err != nil {
		return err
	}
	if len(s.Layers) == 0 {
		return fmt.Errorf("networks: %q has no layers", s.Name)
	}
	for _, l := range s.Layers {
		if l.Kind == mapping.KindPool && l.K != l.Stride {
			return fmt.Errorf("networks: %s: overlapping pool %q (window %d, stride %d) not supported in the trainable path", s.Name, l.Name, l.K, l.Stride)
		}
	}
	return nil
}

// BuildTrainable assembles a runnable nn.Network from a geometry Spec:
// every conv and hidden fc layer is followed by ReLU (the paper's default
// activation), pooling layers become max pooling, and the final fc layer
// feeds a softmax loss. Only non-overlapping pooling is supported (the
// MNIST-scale networks; the ImageNet networks are simulated, not trained).
// It panics on a spec ValidateTrainable rejects.
func BuildTrainable(s Spec, rng *rand.Rand) *nn.Network {
	if err := s.ValidateTrainable(); err != nil {
		panic(err)
	}
	var layers []nn.Layer
	lastFC := -1
	for i, l := range s.Layers {
		if l.Kind == mapping.KindFC {
			lastFC = i
		}
	}
	activation := func(l mapping.Layer) nn.Layer {
		if l.Act == mapping.ActSigmoid {
			return nn.NewSigmoid(l.Name + ".sigmoid")
		}
		return nn.NewReLU(l.Name + ".relu")
	}
	for i, l := range s.Layers {
		switch l.Kind {
		case mapping.KindConv:
			layers = append(layers,
				nn.NewConv(l.Name, l.InC, l.InH, l.InW, l.OutC, l.K, l.Stride, l.Pad, rng),
				activation(l))
		case mapping.KindPool:
			if l.Pool == mapping.PoolAvg {
				layers = append(layers, nn.NewAvgPool(l.Name, l.InC, l.InH, l.InW, l.K))
			} else {
				layers = append(layers, nn.NewMaxPool(l.Name, l.InC, l.InH, l.InW, l.K))
			}
		case mapping.KindFC:
			layers = append(layers, nn.NewDense(l.Name, l.FCIn, l.FCOut, rng))
			if i != lastFC {
				layers = append(layers, activation(l))
			}
		}
	}
	var inShape []int
	if s.Layers[0].Kind == mapping.KindFC {
		inShape = []int{s.Layers[0].FCIn}
	} else {
		inShape = []int{s.InC, s.InH, s.InW}
	}
	return nn.NewNetwork(s.Name, inShape, s.Classes, nn.SoftmaxLoss{}, layers...)
}

// Resolution-study networks of Figure 13. M-1/M-2/M-3 are the three MLPs,
// M-C the MNIST CNN, and C-4 a four-convolution-layer CNN whose accuracy is
// markedly more sensitive to weight resolution.

// M1 is the Figure 13 MLP M-1 (= Mnist-A geometry).
func M1() Spec { s := MnistA(); s.Name = "M-1"; return s }

// M2 is the Figure 13 MLP M-2 (= Mnist-B geometry).
func M2() Spec { s := MnistB(); s.Name = "M-2"; return s }

// M3 is the Figure 13 MLP M-3 (= Mnist-C geometry).
func M3() Spec { s := MnistC(); s.Name = "M-3"; return s }

// MC is the Figure 13 CNN M-C (= Mnist-0 geometry).
func MC() Spec { s := Mnist0(); s.Name = "M-C"; return s }

// C4 is the Figure 13 four-convolution-layer CNN.
func C4() Spec {
	return Spec{
		Name: "C-4", InC: 1, InH: 28, InW: 28, Classes: 10,
		Layers: []mapping.Layer{
			mapping.Conv("conv1", 1, 28, 28, 8, 3, 1, 1),  // -> 8×28×28
			mapping.Pool("pool1", 8, 28, 28, 2),           // -> 8×14×14
			mapping.Conv("conv2", 8, 14, 14, 16, 3, 1, 1), // -> 16×14×14
			mapping.Pool("pool2", 16, 14, 14, 2),          // -> 16×7×7
			mapping.Conv("conv3", 16, 7, 7, 32, 3, 1, 1),  // -> 32×7×7
			mapping.Conv("conv4", 32, 7, 7, 32, 3, 1, 1),  // -> 32×7×7
			mapping.FC("fc", 32*7*7, 10),
		},
	}
}

// ResolutionStudyNetworks returns the five Figure 13 networks in paper order.
func ResolutionStudyNetworks() []Spec {
	return []Spec{M1(), M2(), M3(), MC(), C4()}
}
