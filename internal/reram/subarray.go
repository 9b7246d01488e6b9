package reram

import (
	"fmt"

	"pipelayer/internal/tensor"
)

// Mode distinguishes the two configurations of a morphable subarray
// (Section 3): computation (analog matrix–vector multiplication) and memory
// (conventional data storage).
type Mode int

const (
	// ModeCompute configures the subarray for in-situ computation.
	ModeCompute Mode = iota
	// ModeMemory configures the subarray as conventional storage.
	ModeMemory
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCompute:
		return "compute"
	case ModeMemory:
		return "memory"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Morphable is a morphable subarray: it can be configured either as a
// compute array (holding weights and performing multiplications) or as plain
// memory. PipeLayer morphs storage arrays into compute arrays during
// training (Section 6.6) to compute partial derivatives from buffered d
// values.
type Morphable struct {
	mode  Mode
	array *ResolutionArray
	store *tensor.Tensor
}

// NewMorphable creates a subarray in memory mode.
func NewMorphable() *Morphable { return &Morphable{mode: ModeMemory} }

// Mode returns the current configuration.
func (m *Morphable) Mode() Mode { return m.mode }

// ConfigureCompute morphs the subarray into compute mode with the given
// programmed array. Any stored memory contents are released.
func (m *Morphable) ConfigureCompute(array *ResolutionArray) {
	if array == nil {
		panic("reram: ConfigureCompute requires an array")
	}
	m.mode = ModeCompute
	m.array = array
	m.store = nil
}

// ConfigureMemory morphs the subarray into memory mode.
func (m *Morphable) ConfigureMemory() {
	m.mode = ModeMemory
	m.array = nil
}

// Array returns the compute array; it panics in memory mode.
func (m *Morphable) Array() *ResolutionArray {
	if m.mode != ModeCompute {
		panic("reram: subarray is not in compute mode")
	}
	return m.array
}

// Store writes a tensor into the subarray; it panics in compute mode.
func (m *Morphable) Store(t *tensor.Tensor) {
	if m.mode != ModeMemory {
		panic("reram: cannot store into a compute-mode subarray")
	}
	m.store = t.Clone()
}

// Load reads back the stored tensor (nil if nothing stored).
func (m *Morphable) Load() *tensor.Tensor {
	if m.mode != ModeMemory {
		panic("reram: cannot load from a compute-mode subarray")
	}
	if m.store == nil {
		return nil
	}
	return m.store.Clone()
}
