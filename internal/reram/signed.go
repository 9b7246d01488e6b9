package reram

import (
	"fmt"
	"math"

	"pipelayer/internal/fixed"
	"pipelayer/internal/tensor"
)

// SignedPair is the positive/negative crossbar pair of Section 4.2.3:
// positive weight magnitudes are programmed into the positive array,
// negative magnitudes into the negative array, and the activation
// component's subtractor computes D_P − D_N.
type SignedPair struct {
	Pos, Neg *Crossbar
}

// NewSignedPair allocates an ideal pair of rows×cols arrays.
func NewSignedPair(rows, cols int) *SignedPair {
	return &SignedPair{Pos: NewCrossbar(rows, cols), Neg: NewCrossbar(rows, cols)}
}

// ProgramCodes writes the row-major positive and negative code matrices
// into the pair.
func (p *SignedPair) ProgramCodes(pos, neg []uint8) {
	p.Pos.ProgramCodes(pos)
	p.Neg.ProgramCodes(neg)
}

// MatVecSpike runs both arrays on the same spike-coded input and returns the
// signed per-column counts D_P − D_N.
func (p *SignedPair) MatVecSpike(inputCodes []uint64, inBits int) []int {
	dp := p.Pos.MatVecSpike(inputCodes, inBits)
	dn := p.Neg.MatVecSpike(inputCodes, inBits)
	for i := range dp {
		dp[i] -= dn[i]
	}
	return dp
}

// Stats returns the combined event counts of both arrays.
func (p *SignedPair) Stats() Stats {
	s := p.Pos.Stats()
	s.Add(p.Neg.Stats())
	return s
}

// ResolutionArray stores a signed weight matrix at full WeightBits (16-bit)
// resolution using fixed.Groups (4) signed pairs of 4-bit cells — the
// resolution-compensation scheme of Figure 14. Group g stores bit slice
// [4g+3 .. 4g] of every weight magnitude; group outputs are combined as
// Σ_g count_g << 4g.
type ResolutionArray struct {
	Rows, Cols int
	groups     [fixed.Groups]*SignedPair
	// scale maps weight code 65535 back to the analog magnitude wMax.
	scale float64
}

// NewResolutionArray programs a (rows×cols) float weight matrix W (tensor
// with rows*cols elements, row-major, rows = input dim, cols = output dim)
// into 4 signed pairs.
func NewResolutionArray(w *tensor.Tensor, rows, cols int) *ResolutionArray {
	if w.Size() != rows*cols {
		panic(fmt.Sprintf("reram: weight tensor has %d elems for %dx%d array", w.Size(), rows, cols))
	}
	ra := &ResolutionArray{Rows: rows, Cols: cols}
	for g := range ra.groups {
		ra.groups[g] = NewSignedPair(rows, cols)
	}
	ra.Program(w)
	return ra
}

// Program (re)writes the full weight matrix, refreshing the scale.
func (ra *ResolutionArray) Program(w *tensor.Tensor) {
	if w.Size() != ra.Rows*ra.Cols {
		panic(fmt.Sprintf("reram: Program got %d elems for %dx%d array", w.Size(), ra.Rows, ra.Cols))
	}
	ra.scale = w.AbsMax()
	if ra.scale == 0 {
		ra.scale = 1
	}
	n := ra.Rows * ra.Cols
	var posCodes, negCodes [fixed.Groups][]uint8
	for g := 0; g < fixed.Groups; g++ {
		posCodes[g] = make([]uint8, n)
		negCodes[g] = make([]uint8, n)
	}
	maxCode := float64(math.MaxUint16)
	for i, v := range w.Data() {
		mag := uint16(math.Round(math.Abs(v) / ra.scale * maxCode))
		segs := fixed.Decompose16(mag)
		for g := 0; g < fixed.Groups; g++ {
			if v >= 0 {
				posCodes[g][i] = segs[g]
			} else {
				negCodes[g][i] = segs[g]
			}
		}
	}
	for g := 0; g < fixed.Groups; g++ {
		ra.groups[g].ProgramCodes(posCodes[g], negCodes[g])
	}
}

// Scale returns the analog magnitude corresponding to the all-ones code.
func (ra *ResolutionArray) Scale() float64 { return ra.scale }

// MatVecCodes computes the signed integer result Σ_i code_i·wcode_ij for
// every column j, where wcode is the signed 16-bit weight code. Exact for
// ideal devices: the four group counts are shift-added per Figure 14(a).
func (ra *ResolutionArray) MatVecCodes(inputCodes []uint64, inBits int) []int64 {
	out := make([]int64, ra.Cols)
	for g := 0; g < fixed.Groups; g++ {
		counts := ra.groups[g].MatVecSpike(inputCodes, inBits)
		shift := uint(fixed.CellBits * g)
		for j, c := range counts {
			out[j] += int64(c) << shift
		}
	}
	return out
}

// MatVecFloat runs the full analog pipeline on a float input vector: inputs
// are quantized to inBits-bit codes (signed inputs are handled by two passes,
// one for the positive part and one for the negative part — the same
// mechanism the backward phase uses for error vectors δ), driven through the
// arrays, and rescaled to floats.
func (ra *ResolutionArray) MatVecFloat(x *tensor.Tensor, inBits int) *tensor.Tensor {
	if x.Size() != ra.Rows {
		panic(fmt.Sprintf("reram: MatVecFloat input has %d elems for %d rows", x.Size(), ra.Rows))
	}
	xScale := x.AbsMax()
	out := tensor.New(ra.Cols)
	if xScale == 0 {
		return out
	}
	maxIn := float64(uint64(1)<<uint(inBits) - 1)

	posCodes := make([]uint64, ra.Rows)
	negCodes := make([]uint64, ra.Rows)
	hasNeg := false
	for i, v := range x.Data() {
		code := uint64(math.Round(math.Abs(v) / xScale * maxIn))
		if v >= 0 {
			posCodes[i] = code
		} else {
			negCodes[i] = code
			hasNeg = true
		}
	}
	acc := ra.MatVecCodes(posCodes, inBits)
	if hasNeg {
		negAcc := ra.MatVecCodes(negCodes, inBits)
		for j := range acc {
			acc[j] -= negAcc[j]
		}
	}
	// Rescale: value = count · (xScale/maxIn) · (wScale/65535).
	k := xScale / maxIn * ra.scale / float64(math.MaxUint16)
	for j, c := range acc {
		out.Data()[j] = float64(c) * k
	}
	return out
}

// Stats returns combined event counts across all groups and signs.
func (ra *ResolutionArray) Stats() Stats {
	var s Stats
	for _, g := range ra.groups {
		s.Add(g.Stats())
	}
	return s
}
