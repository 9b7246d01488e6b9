// Package pipeline owns PipeLayer's intra- and inter-layer pipelined
// schedule (paper Sections 3.1 and 3.3) and the circular inter-layer buffers
// of Figure 8 that enforce its depth rule. Schedule writes the Figure 6 and
// Figure 7a training schedules and both testing schedules out once, as typed
// ops per cycle; Simulate plays them through liveness-checked buffers and
// validates the closed-form cycle counts of Table 2 (implemented in
// internal/mapping). The Gantt chart (internal/trace) and the functional
// pipelined executor (core.TrainPipelined) play the same ops through the
// same buffers.
package pipeline

import (
	"fmt"

	"pipelayer/internal/mapping"
)

// entry is one slot of a circular buffer.
type entry[T any] struct {
	image int // which image's data occupies the slot
	v     T
	live  bool // written and not yet consumed by its final reader
}

// CircularBuffer models one inter-layer memory-subarray buffer (Figure 8):
// a fixed ring of entries with a write pointer that wraps. Writing over an
// entry that is still live (its reader has not consumed it) is a scheduling
// bug; the buffer panics, which is how the 2(L−l)+1 depth rule of Section
// 3.3 is enforced.
type CircularBuffer[T any] struct {
	name    string
	entries []entry[T]
	wp      int
	live    int
	// MaxOccupancy tracks the peak number of simultaneously-live entries.
	MaxOccupancy int
}

// NewCircularBuffer creates a buffer with the given depth.
func NewCircularBuffer[T any](name string, depth int) *CircularBuffer[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("pipeline: buffer %q depth must be positive", name))
	}
	return &CircularBuffer[T]{name: name, entries: make([]entry[T], depth)}
}

// Depth returns the number of slots.
func (b *CircularBuffer[T]) Depth() int { return len(b.entries) }

// Occupancy returns the number of currently-live entries.
func (b *CircularBuffer[T]) Occupancy() int { return b.live }

// Write stores image's value v in the next slot, advancing the pointer. It
// panics if the slot it would overwrite is still live.
func (b *CircularBuffer[T]) Write(image int, v T) {
	e := &b.entries[b.wp]
	if e.live {
		panic(fmt.Sprintf("pipeline: buffer %q overwrites live data of image %d with image %d (depth %d too small)",
			b.name, e.image, image, len(b.entries)))
	}
	*e = entry[T]{image: image, v: v, live: true}
	b.wp = (b.wp + 1) % len(b.entries)
	b.live++
	b.MaxOccupancy = max(b.MaxOccupancy, b.live)
}

// Peek returns image's live value without retiring it.
func (b *CircularBuffer[T]) Peek(image int) T { return b.find(image).v }

// Consume retires image's entry (its final reader has used it) and returns
// its value.
func (b *CircularBuffer[T]) Consume(image int) T {
	e := b.find(image)
	e.live = false
	b.live--
	return e.v
}

// find returns image's live entry. It panics when there is none: reading
// data that was never written, already consumed or overwritten is a
// scheduling bug.
func (b *CircularBuffer[T]) find(image int) *entry[T] {
	for i := range b.entries {
		if e := &b.entries[i]; e.live && e.image == image {
			return e
		}
	}
	panic(fmt.Sprintf("pipeline: buffer %q has no live entry for image %d", b.name, image))
}

// Buffers holds the inter-layer buffers one run's schedule reads and
// writes: d_l, the output of layer l, and in training δ_l, the error at
// layer l. Both are indexed by the 1-based layer; a nil buffer is one the
// run has no use for.
type Buffers[T any] struct {
	training bool
	d, delta []*CircularBuffer[T]
	all      []*CircularBuffer[T] // every non-nil buffer, in creation order
}

// NewBuffers builds cfg's buffers at the depths of Section 3.3. In
// training, d_l for l < L holds 2(L−l)+1 entries, the cycles from its write
// to its final read, while d_L and every δ_l, read in the cycle after they
// are written, are the paper's duplicated two-entry buffers. Testing keeps
// d_1..d_{L−1} in two entries. Sequential runs (Figure 7a) reuse a single
// entry where the pipeline needs the depth rule.
func NewBuffers[T any](cfg Config) Buffers[T] {
	L := cfg.L
	b := Buffers[T]{training: cfg.Training, d: make([]*CircularBuffer[T], L+1)}
	mk := func(name string, l, depth int) *CircularBuffer[T] {
		buf := NewCircularBuffer[T](fmt.Sprintf("%s%d", name, l), depth)
		b.all = append(b.all, buf)
		return buf
	}
	for l := 1; l < L; l++ {
		depth := 2
		if cfg.Training {
			depth = mapping.BufferDepth(L, l)
		}
		if !cfg.Pipelined {
			depth = 1
		}
		b.d[l] = mk("d", l, depth)
	}
	if cfg.Training {
		b.d[L] = mk("d", L, 2)
		b.delta = make([]*CircularBuffer[T], L+1)
		for l := 1; l <= L; l++ {
			b.delta[l] = mk("delta", l, 2)
		}
	}
	return b
}

// Read resolves op's buffered inputs in the cycle op runs. x is d_{l−1},
// the layer input of a Forward or Backward op on layer l, or d_L for
// OutputError; it is the zero value at layer 1, whose input is the image
// itself. delta is δ_l for a Backward op. Read consumes every entry op is
// the final reader of (Backward in training, Forward in testing) and peeks
// the rest. Within a cycle every op reads before any op writes: a reader
// drains the slot its writer may reuse in the same cycle (Section 3.3).
func (b Buffers[T]) Read(op Op) (x, delta T) {
	switch op.Kind {
	case Forward:
		if in := b.d[op.Layer-1]; in != nil {
			if b.training {
				x = in.Peek(op.Image)
			} else {
				x = in.Consume(op.Image)
			}
		}
	case OutputError:
		x = b.d[op.Layer].Consume(op.Image)
	case Backward:
		delta = b.delta[op.Layer].Consume(op.Image)
		if in := b.d[op.Layer-1]; in != nil {
			x = in.Consume(op.Image)
		}
	}
	return x, delta
}

// Out returns the buffer op's result goes to, or nil when nothing later
// reads it: d_l for Forward, δ_L for OutputError and δ_{l−1} for Backward.
func (b Buffers[T]) Out(op Op) *CircularBuffer[T] {
	switch op.Kind {
	case Forward:
		return b.d[op.Layer]
	case OutputError:
		return b.delta[op.Layer]
	case Backward:
		return b.delta[op.Layer-1]
	}
	return nil
}
