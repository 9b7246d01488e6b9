package arch

import (
	"fmt"
	"math"

	"pipelayer/internal/parallel"
	"pipelayer/internal/reram"
	"pipelayer/internal/tensor"
)

// MatVecCols is the batched readout of the quantized array: x packs N input
// vectors as the columns of a (Rows × N) tensor and the result packs the N
// output vectors as the columns of a (Cols × N) tensor. Column n of the
// result is bit-identical to MatVec applied to column n alone — each input
// column is quantized against its own absolute maximum (the word-line driver
// calibration is per vector, exactly as in the single-vector path) and every
// (output, input) pair accumulates over the rows in ascending order.
//
// The point of the batched form is throughput: one pass over the programmed
// conductances serves every in-flight column, so each weight load from
// memory is amortized over N multiply-accumulates instead of one, and the
// branchy per-element zero test of the single-vector loop disappears. That
// drops the per-sample cost well below N independent MatVec calls even on a
// single core; the output-column fan-out still scales across the worker pool
// on top.
//
// Bit-identity with the zero-skipping MatVec loop holds because the only
// terms the serial path skips are exact ±0 products, and adding ±0 to a
// round-to-nearest accumulation never changes the stored value (the
// accumulator starts at +0, and +0 + ±0 = +0).
func (q *Quantized) MatVecCols(x *tensor.Tensor) *tensor.Tensor {
	return q.matVecCols(x, false)
}

// MatVecColsConsume is MatVecCols for an input the caller discards, such as
// a fresh Im2Col or PackCols tensor: it quantizes x's columns in place
// instead of into a copy, so on return x holds their integer codes. The
// result is bit-identical to MatVecCols(x).
func (q *Quantized) MatVecColsConsume(x *tensor.Tensor) *tensor.Tensor {
	return q.matVecCols(x, true)
}

func (q *Quantized) matVecCols(x *tensor.Tensor, consume bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(0) != q.Rows {
		panic(fmt.Sprintf("arch: MatVecCols input is %v for %d rows (array is %dx%d)", x.Shape(), q.Rows, q.Rows, q.Cols))
	}
	n := x.Dim(1)
	t0 := q.flightRec.Now()
	out := tensor.New(q.Cols, n)
	if n == 0 {
		return out
	}
	maxIn := float64(uint64(1)<<uint(q.Bits) - 1)
	// Quantize every input column against its own scale, keeping the
	// column-interleaved layout (xq[i*n+c] is row i of column c) so the
	// readout's inner loop streams contiguously across columns. Both passes
	// walk the input row-major — strided per-column scans would take a cache
	// miss on nearly every element. Each element's code depends only on the
	// element and its column's scale, so xq may be x itself.
	xd := x.Data()
	xq := xd
	if !consume {
		xq = make([]float64, q.Rows*n)
	}
	scales := make([]float64, n)
	for i := 0; i < q.Rows; i++ {
		row := xd[i*n : (i+1)*n : (i+1)*n]
		for c, v := range row {
			if a := math.Abs(v); a > scales[c] {
				scales[c] = a
			}
		}
	}
	for i := 0; i < q.Rows; i++ {
		row := xd[i*n : (i+1)*n : (i+1)*n]
		dst := xq[i*n : (i+1)*n : (i+1)*n]
		for c, v := range row {
			// Both skips store +0, so an in-place x's −0 or a NaN in a zero
			// column does not survive as a code.
			if v == 0 {
				dst[c] = 0 // Round(0) is 0: the code is zero without computing it
				continue
			}
			xScale := scales[c]
			if xScale == 0 {
				dst[c] = 0 // zero column: codes stay zero, output stays zero, as in MatVec
				continue
			}
			code := math.Round(math.Abs(v) / xScale * maxIn)
			if v < 0 {
				code = -code
			}
			dst[c] = code
		}
	}
	// Each column's output scale replaces its input scale, which the
	// quantization above was the last to read.
	ks := scales
	for c, xScale := range scales {
		if xScale != 0 {
			ks[c] = xScale / maxIn * q.scale / math.MaxUint16
		}
	}
	f := q.faults
	parallel.Default().For(q.Cols, parallel.Grain(q.Rows*n), func(lo, hi int) {
		if f == nil {
			readoutExact(q.colCodes, xq, ks, out.Data(), q.Rows, n, lo, hi)
			return
		}
		for j := lo; j < hi; j++ {
			col := f.eff[j*q.Rows : (j+1)*q.Rows]
			drift := 1.0
			if f.drift != 1 && f.class[j] != reram.ColDegraded {
				drift = f.drift
			}
			od := out.Data()[j*n : (j+1)*n]
			// Fault path: effective conductances may be fractional, so every
			// partial sum rounds. Match the serial path's arithmetic exactly —
			// ascending-row mul-then-add per column — and fold the drift in
			// before the scale, as MatVec does.
			// Block the batch dimension in eights so the running sums live
			// in registers across the whole row sweep; the weight column is
			// at most a few KB, so re-reading it per block stays in L1.
			c := 0
			for ; c+8 <= n; c += 8 {
				var a0, a1, a2, a3, a4, a5, a6, a7 float64
				for i, w := range col {
					if w == 0 {
						continue // ±0 terms cannot change any accumulator
					}
					r := xq[i*n+c : i*n+c+8]
					a0 += r[0] * w
					a1 += r[1] * w
					a2 += r[2] * w
					a3 += r[3] * w
					a4 += r[4] * w
					a5 += r[5] * w
					a6 += r[6] * w
					a7 += r[7] * w
				}
				od[c] = a0 * drift * ks[c]
				od[c+1] = a1 * drift * ks[c+1]
				od[c+2] = a2 * drift * ks[c+2]
				od[c+3] = a3 * drift * ks[c+3]
				od[c+4] = a4 * drift * ks[c+4]
				od[c+5] = a5 * drift * ks[c+5]
				od[c+6] = a6 * drift * ks[c+6]
				od[c+7] = a7 * drift * ks[c+7]
			}
			for ; c < n; c++ {
				var a float64
				for i, w := range col {
					if w == 0 {
						continue
					}
					a += xq[i*n+c] * w
				}
				od[c] = a * drift * ks[c]
			}
		}
	})
	q.flightRec.Record("arch_readout_cols", 0, q.flightTrack, t0, int64(n))
	return out
}

// readoutExact accumulates the fault-free output columns lo..hi over all
// input columns. Both operands are integer codes held exactly in float64
// (|code| < 2^16, so a product is < 2^32 and a sum over any realistic row
// count stays far below 2^53), which makes the whole accumulation exact: no
// partial sum ever rounds, so the result is independent of both summation
// order and whether the multiply-add is fused. That licenses two things the
// rounding-sensitive fault path cannot do while staying bit-identical to
// MatVec's sequential mul-then-add loop: math.FMA (one fused instruction per
// term) and row tiling, which keeps a 16 KB slab of the quantized inputs
// resident in L1 while every output column sweeps over it, instead of
// streaming the whole input block from L2 once per output column. The sums
// accumulate in od itself, whose rows lo..hi must hold +0 on entry, and are
// scaled in place at the end.
func readoutExact(codes, xq, ks, od []float64, rows, n, lo, hi int) {
	const tile = 128 // rows per slab: 128 rows × 8 cols × 8 B = 8 KB of xq per c-block
	acc := od[lo*n : hi*n]
	for i0 := 0; i0 < rows; i0 += tile {
		i1 := i0 + tile
		if i1 > rows {
			i1 = rows
		}
		for j := lo; j < hi; j++ {
			col := codes[j*rows+i0 : j*rows+i1]
			base := (j - lo) * n
			c := 0
			for ; c+8 <= n; c += 8 {
				a := acc[base+c : base+c+8 : base+c+8]
				a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
				a4, a5, a6, a7 := a[4], a[5], a[6], a[7]
				rb := i0*n + c
				// No zero-weight test here: adding an exact ±0 product
				// cannot change any accumulator, and the branch costs more
				// than the arithmetic it would skip.
				for _, w := range col {
					r := xq[rb : rb+8 : rb+8]
					rb += n
					a0 = math.FMA(r[0], w, a0)
					a1 = math.FMA(r[1], w, a1)
					a2 = math.FMA(r[2], w, a2)
					a3 = math.FMA(r[3], w, a3)
					a4 = math.FMA(r[4], w, a4)
					a5 = math.FMA(r[5], w, a5)
					a6 = math.FMA(r[6], w, a6)
					a7 = math.FMA(r[7], w, a7)
				}
				a[0], a[1], a[2], a[3] = a0, a1, a2, a3
				a[4], a[5], a[6], a[7] = a4, a5, a6, a7
			}
			for ; c < n; c++ {
				a := acc[base+c]
				rb := i0*n + c
				for _, w := range col {
					a = math.FMA(xq[rb], w, a)
					rb += n
				}
				acc[base+c] = a
			}
		}
	}
	for j := lo; j < hi; j++ {
		for c := 0; c < n; c++ {
			od[j*n+c] *= ks[c]
		}
	}
}

// PackCols packs the given equally-sized vectors as the columns of a new
// (len(vec) × len(vecs)) tensor — the input form MatVecCols consumes.
func PackCols(vecs []*tensor.Tensor) *tensor.Tensor {
	if len(vecs) == 0 {
		return tensor.New(0, 0)
	}
	rows := vecs[0].Size()
	out := tensor.New(rows, len(vecs))
	od := out.Data()
	for c, v := range vecs {
		if v.Size() != rows {
			panic(fmt.Sprintf("arch: PackCols vector %d has %d elems, want %d", c, v.Size(), rows))
		}
		for i, val := range v.Data() {
			od[i*len(vecs)+c] = val
		}
	}
	return out
}
