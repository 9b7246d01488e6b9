package arch

import (
	"math"

	"pipelayer/internal/fixed"
	"pipelayer/internal/spike"
	"pipelayer/internal/tensor"
)

// Weight update datapath of the paper's Section 4.4.2 and Figure 14(b): the
// averaged partial derivative is read out of the gradient buffers with input
// spikes representing 1/B (the bit-line current accumulation performs the
// averaging); the old weights are read as four shifted 4-bit segments and
// composed; the activation component's subtractor — LUT bypassed — computes
// (old − averaged gradient); and the result is decomposed back into four
// segments and programmed into the morphable subarrays.

// UpdateUnit applies batch-averaged gradient updates to 16-bit quantized
// weights through the hardware flow.
type UpdateUnit struct {
	// Bits is the fraction resolution of the 1/B averaging spikes.
	Bits int
}

// NewUpdateUnit creates an update unit with the given averaging resolution.
func NewUpdateUnit(bits int) *UpdateUnit { return &UpdateUnit{Bits: bits} }

// AverageFactor returns the hardware approximation of 1/B realized by the
// averaging input spikes.
func (u *UpdateUnit) AverageFactor(batch int) float64 {
	code := spike.UpdateAverageCode(batch, u.Bits)
	return float64(code) / float64(uint64(1)<<uint(u.Bits))
}

// Apply updates a float weight tensor in place through the quantized
// read–modify–write: for each weight, the accumulated gradient is averaged
// by the spike-coded 1/B factor and scaled by lr, the old weight's 16-bit
// code is read and composed from its segments, the subtractor computes the
// new code, and the new segments are written back. scale is the weight
// array's full-scale magnitude. It returns the maximum per-weight deviation
// from the ideal float update (bounded by one quantization step).
func (u *UpdateUnit) Apply(w, grad *tensor.Tensor, lr float64, batch int, scale float64) float64 {
	if w.Size() != grad.Size() {
		panic("arch: UpdateUnit.Apply size mismatch")
	}
	if scale <= 0 {
		panic("arch: UpdateUnit.Apply requires positive scale")
	}
	avg := u.AverageFactor(batch)
	step := scale / math.MaxUint16
	maxDev := 0.0
	for i, old := range w.Data() {
		// Ideal float update for the deviation bound.
		ideal := old - lr*grad.Data()[i]/float64(batch)

		// Hardware path: signed 16-bit code of the old weight…
		oldCode := int(math.Round(math.Abs(old) / scale * math.MaxUint16))
		if oldCode > math.MaxUint16 {
			oldCode = math.MaxUint16
		}
		segs := fixed.Decompose16(uint16(oldCode))
		composed := int(fixed.Compose16(segs))
		if old < 0 {
			composed = -composed
		}
		// …minus the averaged, scaled gradient code…
		deltaCode := int(math.Round(lr * avg * grad.Data()[i] / step))
		newCode := composed - deltaCode
		if newCode > math.MaxUint16 {
			newCode = math.MaxUint16
		} else if newCode < -math.MaxUint16 {
			newCode = -math.MaxUint16
		}
		// …then decompose/recompose the magnitude for the write-back.
		mag := newCode
		if mag < 0 {
			mag = -mag
		}
		back := int(fixed.Compose16(fixed.Decompose16(uint16(mag))))
		if newCode < 0 {
			back = -back
		}
		nw := float64(back) * step
		w.Data()[i] = nw
		if dev := math.Abs(nw - ideal); dev > maxDev {
			maxDev = dev
		}
	}
	return maxDev
}

// Update is the first of the trainer's two update passes (ProgramKernels is
// the second): Apply's per-weight arithmetic in the same expression order,
// without the parts that cannot change a bit. The segment read and the
// write-back each compose a code back to itself (the exhaustive round-trip
// test in internal/fixed), and no caller reads the deviation figure. It
// writes the new weights into w and returns their AbsMax, the scale the
// arrays are programmed with next; the weights equal Apply's bit for bit.
// It consumes grad, leaving the buffer zeroed for the next batch.
func (u *UpdateUnit) Update(w, grad *tensor.Tensor, lr float64, batch int, scale float64) float64 {
	if w.Size() != grad.Size() {
		panic("arch: UpdateUnit.Update size mismatch")
	}
	if scale <= 0 {
		panic("arch: UpdateUnit.Update requires positive scale")
	}
	step := scale / math.MaxUint16
	rate := lr * u.AverageFactor(batch) // Apply's lr * avg * g, left to right
	wd, g := w.Data(), grad.Data()
	// The averaged, scaled gradient codes go first, staged in grad: a loop
	// of independent divisions and roundings overlaps better than one that
	// carries both of a weight's dependency chains.
	for i, gi := range g {
		g[i] = math.Round(rate * gi / step)
	}
	absMax := 0.0
	for i, old := range wd {
		code := int(math.Round(math.Abs(old) / scale * math.MaxUint16))
		if code > math.MaxUint16 {
			code = math.MaxUint16
		}
		// Apply reads the code back through uint16 segments. That is the
		// identity for a finite weight, and keeps a NaN weight's code (an
		// out-of-range int) reading back as Apply's does.
		code = int(uint16(code))
		if old < 0 {
			code = -code
		}
		code -= int(g[i])
		g[i] = 0
		if code > math.MaxUint16 {
			code = math.MaxUint16
		} else if code < -math.MaxUint16 {
			code = -math.MaxUint16
		}
		nw := float64(code) * step
		wd[i] = nw
		if a := math.Abs(nw); a > absMax {
			absMax = a
		}
	}
	return absMax
}
