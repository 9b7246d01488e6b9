// Package testutil holds the tiny network specs and synthetic datasets that
// the core, arch, and serve test suites share. Every builder is deterministic
// — a given (shape, seed) pair always produces the same spec or samples — so
// tests in different packages can assert bit-identical results against the
// same fixtures without copy-pasting the definitions.
package testutil

import (
	"pipelayer/internal/dataset"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
)

// TinyMLP is the two-layer 784-48-10 perceptron used by the determinism,
// fault, and serving suites: big enough to exercise the quantized readout on
// a full 28×28 input, small enough to train in milliseconds.
func TinyMLP(name string) networks.Spec {
	return networks.Spec{
		Name: name, InC: 1, InH: 28, InW: 28, Classes: 10,
		Layers: []mapping.Layer{
			mapping.FC("fc1", 784, 48),
			mapping.FC("fc2", 48, 10),
		},
	}
}

// TinyDeepMLP is the three-layer 784-64-32-10 perceptron used where a test
// needs more than two pipeline stages (e.g. the Figure 6 ring-depth checks).
func TinyDeepMLP(name string) networks.Spec {
	return networks.Spec{
		Name: name, InC: 1, InH: 28, InW: 28, Classes: 10,
		Layers: []mapping.Layer{
			mapping.FC("fc1", 784, 64),
			mapping.FC("fc2", 64, 32),
			mapping.FC("fc3", 32, 10),
		},
	}
}

// TinyDeepCNN is the conv-pool-conv-pool-fc stack used to cover the conv and
// pool engines end to end at 28×28 scale.
func TinyDeepCNN(name string) networks.Spec {
	return networks.Spec{
		Name: name, InC: 1, InH: 28, InW: 28, Classes: 10,
		Layers: []mapping.Layer{
			mapping.Conv("conv1", 1, 28, 28, 4, 3, 1, 1),
			mapping.Pool("pool1", 4, 28, 28, 2),
			mapping.Conv("conv2", 4, 14, 14, 8, 3, 1, 1),
			mapping.Pool("pool2", 8, 14, 14, 2),
			mapping.FC("fc", 8*7*7, 10),
		},
	}
}

// SigmoidMLP is a 784-32-10 perceptron with a sigmoid hidden activation,
// which exercises the configurable-LUT path of the activation component
// (Section 4.2.3).
func SigmoidMLP(name string) networks.Spec {
	return networks.Spec{
		Name: name, InC: 1, InH: 28, InW: 28, Classes: 10,
		Layers: []mapping.Layer{
			mapping.FC("fc1", 784, 32).WithActivation(mapping.ActSigmoid),
			mapping.FC("fc2", 32, 10),
		},
	}
}

// AvgPoolCNN is a conv-avgpool-fc stack, which exercises Equation 2's
// average-pooling datapath.
func AvgPoolCNN(name string) networks.Spec {
	return networks.Spec{
		Name: name, InC: 1, InH: 28, InW: 28, Classes: 10,
		Layers: []mapping.Layer{
			mapping.Conv("conv1", 1, 28, 28, 6, 5, 1, 0), // -> 6×24×24
			mapping.AvgPool("pool1", 6, 24, 24, 2),       // -> 6×12×12
			mapping.FC("fc", 6*12*12, 10),
		},
	}
}

// FlatSamples generates n synthetic digit samples with flattened 784-element
// inputs — the form the MLP specs consume.
func FlatSamples(n int, seed int64) []nn.Sample {
	return dataset.Generate(n, dataset.DefaultOptions(true), seed)
}

// ImageSamples generates n synthetic digit samples with 1×28×28 image inputs
// — the form the CNN specs consume.
func ImageSamples(n int, seed int64) []nn.Sample {
	return dataset.Generate(n, dataset.DefaultOptions(false), seed)
}
