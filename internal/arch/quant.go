// Package arch holds the datapath building blocks the layer engines of
// internal/core are assembled from: the quantized crossbar readout that
// stands in for a programmed array pair (Figure 9's compute subarrays), the
// error-backward datapaths of Section 4.3 (Figure 10/11), the weight-update
// read–modify–write of Section 4.4 (Figure 14b), and the Table 1 cycle
// operation breakdown.
package arch

import (
	"fmt"
	"math"

	"pipelayer/internal/fixed"
	"pipelayer/internal/parallel"
	"pipelayer/internal/reram"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// Quantized is the fast functional model of a programmed ResolutionArray:
// weights and inputs are reduced to the same integer codes the crossbars
// hold, but the integer dot products are evaluated numerically instead of
// spike-by-spike. The two paths are provably identical (the spike package's
// DotProduct property test shows count == exact integer product), so the
// fast model preserves bit-exact functional behaviour at a fraction of the
// simulation cost; TestQuantizedMatchesSpikePath cross-checks them.
type Quantized struct {
	Rows, Cols int
	// codes holds the signed 16-bit weight codes (row-major).
	codes []int32
	// colCodes holds the same codes column-major, so the per-bit-line
	// (per-output-column) readout streams contiguously — the layout the
	// worker pool parallelizes over.
	colCodes []float64
	// scale maps code ±65535 to the analog magnitude ±wMax.
	scale float64
	// Bits is the input spike resolution.
	Bits int
	// faults is the optional fault-injection state (see faults.go); nil
	// means the ideal model with zero overhead on the read path.
	faults *qFaults
	// flightRec/flightTrack are the optional per-readout span attribution
	// (see WithFlight); a nil recorder costs one pointer test per readout.
	flightRec   *flight.Recorder
	flightTrack uint64
}

// NewQuantized programs a (rows×cols) float weight matrix at 16-bit signed
// resolution with the given input bit width.
func NewQuantized(w *tensor.Tensor, rows, cols, bits int) *Quantized {
	if w.Size() != rows*cols {
		panic(fmt.Sprintf("arch: weight tensor has %d elems for %dx%d", w.Size(), rows, cols))
	}
	q := newQuantized(rows, cols, bits)
	q.Program(w)
	return q
}

// newQuantized returns an unprogrammed rows×cols array.
func newQuantized(rows, cols, bits int) *Quantized {
	return &Quantized{Rows: rows, Cols: cols, Bits: bits, codes: make([]int32, rows*cols), colCodes: make([]float64, rows*cols)}
}

// NewKernelArrays creates and programs the two arrays a trainable layer
// keeps for its kernel bank w of shape (outC, inC, k, k): the forward array
// (inC·k·k rows × outC columns) and the error array (outC·k·k × inC) that
// holds the reordered kernels (W)* of Figure 11. A dense layer's (out, in)
// weight matrix is the k = 1 case, whose error array holds Wᵀ. absMax must
// be w.AbsMax(). See ProgramKernels.
func NewKernelArrays(w *tensor.Tensor, absMax float64, k, bits int) (fwd, bwd *Quantized) {
	outC, inC := w.Dim(0), w.Dim(1)
	fwd = newQuantized(inC*k*k, outC, bits)
	bwd = newQuantized(outC*k*k, inC, bits)
	ProgramKernels(fwd, bwd, w, absMax, k)
	return fwd, bwd
}

// ProgramKernels rewrites a kernel array pair from NewKernelArrays with the
// kernel bank w, whose AbsMax is absMax. It computes each weight's code once,
// with Program's formula, and stores it in all four layouts: both arrays'
// row-major codes and column-major mirrors. Then it refreshes the forward
// array's fault model and then the error array's. The result is bit for bit
// that of fwd.Program(Transpose(w as outC × inC·k·k)) followed by
// bwd.Program(Transpose(BackwardKernels(w) as inC × outC·k·k)), including
// wear, retries and remaps. It runs on the caller's goroutine.
func ProgramKernels(fwd, bwd *Quantized, w *tensor.Tensor, absMax float64, k int) {
	outC, inC, kk := fwd.Cols, bwd.Cols, k*k
	if w.Size() != outC*inC*kk || fwd.Rows != inC*kk || bwd.Rows != outC*kk {
		panic(fmt.Sprintf("arch: ProgramKernels: %d weights for a %dx%d forward and a %dx%d error array with k=%d",
			w.Size(), fwd.Rows, fwd.Cols, bwd.Rows, bwd.Cols, k))
	}
	scale := absMax
	if scale == 0 {
		scale = 1
	}
	fwd.scale, bwd.scale = scale, scale
	wd := w.Data()
	fRows, bRows := fwd.Rows, bwd.Rows
	// w viewed as an (outC × inC·k·k) matrix is the forward array's
	// column-major mirror. Its row o, column (i, ky, kx) lands in the error
	// array at row (o, k−1−ky, k−1−kx), column i, so the innermost loop runs
	// along one error-array row.
	for o := 0; o < outC; o++ {
		row := wd[o*fRows : (o+1)*fRows]
		fcol := fwd.colCodes[o*fRows : (o+1)*fRows]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				br := (o*k+k-1-ky)*k + k - 1 - kx
				brow := bwd.codes[br*inC : (br+1)*inC]
				for i := range brow {
					r := i*kk + ky*k + kx
					v := row[r]
					mag := math.Round(math.Abs(v) / scale * math.MaxUint16)
					var c int32
					if v >= 0 {
						c = int32(mag)
					} else {
						c = -int32(mag)
					}
					fcol[r] = float64(c)
					fwd.codes[r*outC+o] = c
					brow[i] = c
					bwd.colCodes[i*bRows+br] = float64(c)
				}
			}
		}
	}
	if fwd.faults != nil {
		fwd.faults.refresh(fwd)
	}
	if bwd.faults != nil {
		bwd.faults.refresh(bwd)
	}
}

// Program (re)writes the weights, refreshing the scale — the same code
// assignment as reram.ResolutionArray.Program. Both the row-major and the
// column-major code layouts are refreshed.
func (q *Quantized) Program(w *tensor.Tensor) {
	q.scale = w.AbsMax()
	if q.scale == 0 {
		q.scale = 1
	}
	for i, v := range w.Data() {
		mag := math.Round(math.Abs(v) / q.scale * math.MaxUint16)
		if v >= 0 {
			q.codes[i] = int32(mag)
		} else {
			q.codes[i] = -int32(mag)
		}
		// float64(int32) is exact, so the transposed float mirror produces
		// bit-identical products to the int32 path.
		q.colCodes[(i%q.Cols)*q.Rows+i/q.Cols] = float64(q.codes[i])
	}
	if q.faults != nil {
		q.faults.refresh(q)
	}
}

// Scale returns the analog magnitude of the full-scale code.
func (q *Quantized) Scale() float64 { return q.scale }

// WeightCode returns the signed 16-bit code of one weight.
func (q *Quantized) WeightCode(row, col int) int32 { return q.codes[row*q.Cols+col] }

// MatVec computes out_j = Σ_i x_i·w_ij through the quantized datapath:
// inputs quantized to Bits-bit codes (signed inputs via the two-pass
// positive/negative mechanism), integer accumulation, rescale. Output
// columns are the parallel unit — each bit line integrates its own dot
// product, exactly the per-column independence the spike-domain hardware
// has — and every column accumulates over rows in ascending order, so the
// result is bit-identical for any worker count.
//
// No engine calls MatVec: every engine reads its arrays through MatVecCols,
// a batch of one included. MatVec is the straightforward per-vector
// reference that the oracle tests of this package and internal/core compare
// MatVecCols against.
func (q *Quantized) MatVec(x *tensor.Tensor) *tensor.Tensor {
	if x.Size() != q.Rows {
		panic(fmt.Sprintf("arch: MatVec input has %d elems for %d rows (array is %dx%d)", x.Size(), q.Rows, q.Rows, q.Cols))
	}
	t0 := q.flightRec.Now()
	out := tensor.New(q.Cols)
	xScale := x.AbsMax()
	if xScale == 0 {
		return out
	}
	maxIn := float64(uint64(1)<<uint(q.Bits) - 1)
	// Quantize the input vector once (shared across every bit line, like the
	// physical word-line drivers), then integrate the columns in parallel.
	xc := make([]float64, q.Rows)
	for i, v := range x.Data() {
		code := math.Round(math.Abs(v) / xScale * maxIn)
		if v < 0 {
			code = -code
		}
		xc[i] = code
	}
	k := xScale / maxIn * q.scale / math.MaxUint16
	f := q.faults
	parallel.Default().For(q.Cols, parallel.Grain(q.Rows), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			col := q.colCodes[j*q.Rows : (j+1)*q.Rows]
			if f != nil {
				// The effective readout folds in stuck cells, remap and
				// degrade; drift scales every analog column (degraded
				// columns are computed digitally and do not drift).
				col = f.eff[j*q.Rows : (j+1)*q.Rows]
			}
			s := 0.0
			for i, w := range col {
				if xc[i] == 0 {
					continue
				}
				s += xc[i] * w
			}
			if f != nil && f.drift != 1 && f.class[j] != reram.ColDegraded {
				s *= f.drift
			}
			out.Data()[j] = s * k
		}
	})
	q.flightRec.Record("arch_readout", 0, q.flightTrack, t0, int64(q.Cols))
	return out
}

// Segments returns the four 4-bit cell codes for one weight (positive or
// negative array per sign), for inspection and the update unit.
func (q *Quantized) Segments(row, col int) (segs [fixed.Groups]uint8, negative bool) {
	c := q.codes[row*q.Cols+col]
	negative = c < 0
	if negative {
		c = -c
	}
	return fixed.Decompose16(uint16(c)), negative
}
