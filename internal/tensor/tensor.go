// Package tensor provides the dense numeric substrate used throughout the
// PipeLayer reproduction: an n-dimensional float64 tensor with row-major
// layout, plus the linear-algebra and convolution primitives (matmul, im2col,
// rotation, padding) that the CNN framework in internal/nn builds on.
//
// The package is deliberately self-contained and allocation-conscious:
// everything the paper's software baseline (a Caffe-like framework) needs is
// implemented here from scratch on the standard library.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major n-dimensional array of float64.
// A Tensor value is cheap to copy; the underlying data is shared.
type Tensor struct {
	shape  []int
	stride []int
	data   []float64
}

// New creates a zero-filled tensor with the given shape.
// New() with no dimensions creates a scalar (rank-0) tensor holding one value.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float64, n),
	}
	t.stride = computeStrides(t.shape)
	return t
}

// FromSlice creates a tensor with the given shape, adopting data as backing
// storage (no copy). len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)", len(data), shape, n))
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  data,
	}
	t.stride = computeStrides(t.shape)
	return t
}

func computeStrides(shape []int) []int {
	stride := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		stride[i] = acc
		acc *= shape[i]
	}
	return stride
}

// Shape returns a copy of the tensor's dimensions.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice (shared, row-major).
func (t *Tensor) Data() []float64 { return t.data }

// offset computes the flat index for the given coordinates.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: got %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		off += x * t.stride[i]
	}
	return off
}

// At returns the element at the given coordinates.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx...)] }

// Set stores v at the given coordinates.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx...)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape sharing the same data.
// The element count must be unchanged.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return FromSlice(t.data, shape...)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Apply replaces each element x with f(x), in place, and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Map returns a new tensor whose elements are f applied elementwise.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	return t.Clone().Apply(f)
}

// AddInPlace adds o elementwise into t and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	mustSameSize(t, o, "AddInPlace")
	for i := range t.data {
		t.data[i] += o.data[i]
	}
	return t
}

// SubInPlace subtracts o elementwise from t and returns t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	mustSameSize(t, o, "SubInPlace")
	for i := range t.data {
		t.data[i] -= o.data[i]
	}
	return t
}

// MulInPlace multiplies t by o elementwise (Hadamard product) and returns t.
func (t *Tensor) MulInPlace(o *Tensor) *Tensor {
	mustSameSize(t, o, "MulInPlace")
	for i := range t.data {
		t.data[i] *= o.data[i]
	}
	return t
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AxpyInPlace computes t += a*o elementwise and returns t.
func (t *Tensor) AxpyInPlace(a float64, o *Tensor) *Tensor {
	mustSameSize(t, o, "AxpyInPlace")
	for i := range t.data {
		t.data[i] += a * o.data[i]
	}
	return t
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Hadamard returns the elementwise product as a new tensor.
func Hadamard(t, o *Tensor) *Tensor { return t.Clone().MulInPlace(o) }

func mustSameSize(a, b *Tensor, op string) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch: %v vs %v", op, a.shape, b.shape))
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element and its flat index.
// It panics on an empty tensor.
func (t *Tensor) Max() (float64, int) {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return best, bi
}

// Min returns the minimum element and its flat index.
func (t *Tensor) Min() (float64, int) {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data {
		if v < best {
			best, bi = v, i
		}
	}
	return best, bi
}

// AbsMax returns the maximum absolute value of any element (0 for empty).
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the L2 norm of the tensor viewed as a flat vector.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of t and o viewed as flat vectors.
func Dot(t, o *Tensor) float64 {
	mustSameSize(t, o, "Dot")
	s := 0.0
	for i := range t.data {
		s += t.data[i] * o.data[i]
	}
	return s
}

// Equal reports whether two tensors have identical shape and elements within
// tolerance eps. A NaN element equals nothing, itself included.
func Equal(a, b *Tensor, eps float64) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	for i, x := range a.data {
		// Written so that a NaN difference fails the test: NaN > eps is
		// false. Identical values (infinities too) need no subtraction.
		if y := b.data[i]; x != y && !(math.Abs(x-y) <= eps) {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging; large tensors are summarized.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g] (%d elems)", t.data[0], t.data[1], t.data[len(t.data)-1], len(t.data))
	}
	return b.String()
}
