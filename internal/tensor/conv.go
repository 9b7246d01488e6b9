package tensor

import (
	"fmt"

	"pipelayer/internal/parallel"
)

// Convolution helpers. Images are rank-3 tensors in (C, H, W) layout; kernel
// banks are rank-4 in (OutC, InC, KH, KW) layout, matching the paper's
// four-dimensional kernel K[kx, ky, c_l, c_{l+1}] up to index ordering.

// ConvOutDim returns the output spatial size for input size in, kernel size k,
// stride s and symmetric zero padding p.
func ConvOutDim(in, k, s, p int) int {
	if s <= 0 {
		panic("tensor: stride must be positive")
	}
	return (in+2*p-k)/s + 1
}

// Pad2D zero-pads each channel of a (C,H,W) tensor by p on every side.
func Pad2D(x *Tensor, p int) *Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Pad2D requires rank-3 (C,H,W), got %v", x.shape))
	}
	if p == 0 {
		return x.Clone()
	}
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	out := New(c, h+2*p, w+2*p)
	oh, ow := h+2*p, w+2*p
	for ci := 0; ci < c; ci++ {
		for i := 0; i < h; i++ {
			src := x.data[ci*h*w+i*w : ci*h*w+(i+1)*w]
			dstOff := ci*oh*ow + (i+p)*ow + p
			copy(out.data[dstOff:dstOff+w], src)
		}
	}
	return out
}

// Crop2D removes p rows/columns of border from each channel of a (C,H,W)
// tensor; the inverse of Pad2D.
func Crop2D(x *Tensor, p int) *Tensor {
	if x.Rank() != 3 {
		panic("tensor: Crop2D requires rank-3 (C,H,W)")
	}
	if p == 0 {
		return x.Clone()
	}
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	if h <= 2*p || w <= 2*p {
		panic(fmt.Sprintf("tensor: Crop2D(%d) too large for %v", p, x.shape))
	}
	out := New(c, h-2*p, w-2*p)
	nh, nw := h-2*p, w-2*p
	for ci := 0; ci < c; ci++ {
		for i := 0; i < nh; i++ {
			srcOff := ci*h*w + (i+p)*w + p
			dstOff := ci*nh*nw + i*nw
			copy(out.data[dstOff:dstOff+nw], x.data[srcOff:srcOff+nw])
		}
	}
	return out
}

// Rot180 rotates every (KH,KW) plane of a rank-4 kernel bank by 180 degrees,
// implementing the paper's rot180(K) used for error backward through a
// convolution layer (Section 4.3, Figure 11).
func Rot180(k *Tensor) *Tensor {
	if k.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Rot180 requires rank-4 kernels, got %v", k.shape))
	}
	oc, ic, kh, kw := k.shape[0], k.shape[1], k.shape[2], k.shape[3]
	out := New(oc, ic, kh, kw)
	for o := 0; o < oc; o++ {
		for i := 0; i < ic; i++ {
			base := (o*ic + i) * kh * kw
			for y := 0; y < kh; y++ {
				for x := 0; x < kw; x++ {
					out.data[base+y*kw+x] = k.data[base+(kh-1-y)*kw+(kw-1-x)]
				}
			}
		}
	}
	return out
}

// Im2Col unrolls the sliding windows of a (C,H,W) image into a matrix of
// shape (C*KH*KW, OH*OW): each column is one flattened receptive field.
// This is exactly the "yellow bar" input-vector construction of the paper's
// Figure 4 — each column is the vector fed to a ReRAM array in one step.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	c, oh, ow := im2colShape(x, kh, kw, stride, pad)
	cols := New(c*kh*kw, oh*ow)
	Im2ColInto(cols, x, kh, kw, stride, pad)
	return cols
}

// Im2ColInto is Im2Col into an existing (C*KH*KW, OH*OW) tensor, so a caller
// unrolling many images of one shape can reuse one buffer. Every element is
// written, the zero padding included, so cols' previous contents do not
// matter.
func Im2ColInto(cols, x *Tensor, kh, kw, stride, pad int) {
	c, oh, ow := im2colShape(x, kh, kw, stride, pad)
	if cols.Rank() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColInto needs a (%d, %d) tensor, got %v", c*kh*kw, oh*ow, cols.shape))
	}
	h, w := x.shape[1], x.shape[2]
	ncols := oh * ow
	// Each flat (ci,ky,kx) triple fills exactly one row of cols, so the
	// triples parallelize with disjoint writes.
	parallel.Default().For(c*kh*kw, rowGrain(ncols), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ci, ky, kx := r/(kh*kw), (r/kw)%kh, r%kw
			row := cols.data[r*ncols : (r+1)*ncols]
			for oy := 0; oy < oh; oy++ {
				dst := row[oy*ow : (oy+1)*ow]
				iy := oy*stride + ky - pad
				if iy < 0 || iy >= h {
					clear(dst) // padding region
					continue
				}
				src := x.data[ci*h*w+iy*w : ci*h*w+(iy+1)*w]
				for ox := range dst {
					ix := ox*stride + kx - pad
					if ix < 0 || ix >= w {
						dst[ox] = 0
						continue
					}
					dst[ox] = src[ix]
				}
			}
		}
	})
}

// im2colShape checks Im2Col's arguments and returns the image's channel
// count and the output plane's height and width.
func im2colShape(x *Tensor, kh, kw, stride, pad int) (c, oh, ow int) {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires rank-3 (C,H,W), got %v", x.shape))
	}
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	oh = ConvOutDim(h, kh, stride, pad)
	ow = ConvOutDim(w, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col produces empty output for %v kernel (%d,%d) stride %d pad %d", x.shape, kh, kw, stride, pad))
	}
	return c, oh, ow
}

// Col2Im scatters a (C*KH*KW, OH*OW) column matrix back into a (C,H,W) image,
// accumulating overlapping contributions; the adjoint of Im2Col and the core
// of the convolution input-gradient computation.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := ConvOutDim(h, kh, stride, pad)
	ow := ConvOutDim(w, kw, stride, pad)
	if cols.Rank() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Col2Im shape mismatch: cols %v vs expected (%d,%d)", cols.shape, c*kh*kw, oh*ow))
	}
	x := New(c, h, w)
	ncols := oh * ow
	// Overlapping windows of the same channel accumulate into shared pixels,
	// so the safe parallel unit is the channel: each channel's (ky,kx,oy,ox)
	// scatter order is exactly the serial order, and channels write disjoint
	// planes — bit-identical for every worker count.
	parallel.Default().For(c, rowGrain(kh*kw*ncols), func(clo, chi int) {
		for ci := clo; ci < chi; ci++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					row := ((ci*kh+ky)*kw + kx) * ncols
					for oy := 0; oy < oh; oy++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							x.data[ci*h*w+iy*w+ix] += cols.data[row+oy*ow+ox]
						}
					}
				}
			}
		}
	})
	return x
}

// Conv2D computes the convolution (cross-correlation, Caffe convention) of a
// (C,H,W) input with an (OC,C,KH,KW) kernel bank and per-output-channel bias,
// implementing the paper's Equation (1). bias may be nil.
// The result is (OC, OH, OW).
func Conv2D(x, kernels, bias *Tensor, stride, pad int) *Tensor {
	if x.Rank() != 3 || kernels.Rank() != 4 {
		panic("tensor: Conv2D requires (C,H,W) input and (OC,C,KH,KW) kernels")
	}
	c := x.shape[0]
	oc, ic, kh, kw := kernels.shape[0], kernels.shape[1], kernels.shape[2], kernels.shape[3]
	if ic != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: input %d, kernels expect %d", c, ic))
	}
	oh := ConvOutDim(x.shape[1], kh, stride, pad)
	ow := ConvOutDim(x.shape[2], kw, stride, pad)

	cols := Im2Col(x, kh, kw, stride, pad)        // (C*KH*KW, OH*OW)
	wmat := FromSlice(kernels.data, oc, c*kh*kw)  // (OC, C*KH*KW) view
	out := MatMul(wmat, cols).Reshape(oc, oh, ow) // (OC, OH*OW) -> (OC,OH,OW)
	if bias != nil {
		if bias.Size() != oc {
			panic(fmt.Sprintf("tensor: Conv2D bias size %d != out channels %d", bias.Size(), oc))
		}
		plane := oh * ow
		parallel.Default().For(oc, rowGrain(plane), func(lo, hi int) {
			for o := lo; o < hi; o++ {
				b := bias.data[o]
				seg := out.data[o*plane : (o+1)*plane]
				for i := range seg {
					seg[i] += b
				}
			}
		})
	}
	return out
}

// Conv2DDirect is a loop-nest reference implementation of Conv2D used by
// tests (and the BenchmarkAblationConv ablation) to validate the im2col path.
func Conv2DDirect(x, kernels, bias *Tensor, stride, pad int) *Tensor {
	if x.Rank() != 3 || kernels.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2DDirect requires (C,H,W) input and (OC,C,KH,KW) kernels, got %v and %v", x.shape, kernels.shape))
	}
	if kernels.shape[1] != x.shape[0] {
		panic(fmt.Sprintf("tensor: Conv2DDirect channel mismatch: input has %d channels, kernels expect %d", x.shape[0], kernels.shape[1]))
	}
	if bias != nil && bias.Size() != kernels.shape[0] {
		panic(fmt.Sprintf("tensor: Conv2DDirect bias size %d != out channels %d", bias.Size(), kernels.shape[0]))
	}
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	oc, _, kh, kw := kernels.shape[0], kernels.shape[1], kernels.shape[2], kernels.shape[3]
	oh := ConvOutDim(h, kh, stride, pad)
	ow := ConvOutDim(w, kw, stride, pad)
	out := New(oc, oh, ow)
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ci := 0; ci < c; ci++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							s += x.At(ci, iy, ix) * kernels.At(o, ci, ky, kx)
						}
					}
				}
				if bias != nil {
					s += bias.data[o]
				}
				out.Set(s, o, oy, ox)
			}
		}
	}
	return out
}
