// Package tensor implements the dense tensor arithmetic that the rest of
// the reproduction builds on: shapes, general Einstein summation, slicing,
// padding, concatenation and element-wise math.
//
// The package is a correctness substrate first: all values are stored
// as float64 in row-major order so that the functional SPMD interpreter
// (internal/sim) can prove rewrites semantically equivalent; timing
// comes from the analytic machine model instead. Einsums nevertheless
// execute through a real kernel engine (kernel.go): two-operand specs
// lower to a cache-blocked batched GEMM with intra-op parallelism over
// GOMAXPROCS workers (KernelWorkers), constrained to produce bytes
// identical to the scalar reference path — speed without giving up the
// executors' bit-identical cross-checks.
package tensor

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// Tensor is a dense, row-major n-dimensional array of float64 values.
// The zero value is a scalar-shaped empty tensor; use New or the factory
// helpers to construct usable tensors.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64

	// pooled marks a tensor drawn from the exact-size free lists
	// (NewPooled): exactly one holder owns it, may overwrite it, and
	// hands it back with Release.
	pooled bool
}

// New returns a zero-filled tensor of the given shape. A nil or empty
// shape produces a scalar (rank 0, one element). New panics if any
// dimension is negative: shapes are produced by compiler code, so a bad
// shape is a programming error, not an input error.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in shape " + dims(shape))
		}
		n *= d
	}
	t := &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    make([]float64, n),
	}
	return t
}

// FromValues returns a tensor of the given shape initialized with the
// provided values. It panics if len(values) does not match the shape.
func FromValues(shape []int, values []float64) *Tensor {
	t := New(shape...)
	if len(values) != len(t.data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d values, got %d", shape, len(t.data), len(values)))
	}
	copy(t.data, values)
	return t
}

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float64) *Tensor {
	t := New()
	t.data[0] = v
	return t
}

// Rand returns a tensor of the given shape filled with uniform values in
// [-1, 1) drawn from rng. Deterministic for a seeded rng, which keeps the
// property-based equivalence tests reproducible.
func Rand(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	fillRand(t.data, rng)
	return t
}

// RandInto overwrites every element of dst with Rand's draws, in Rand's
// order, and returns dst: Rand into a buffer the caller already holds.
func RandInto(dst *Tensor, rng *rand.Rand) *Tensor {
	fillRand(dst.data, rng)
	return dst
}

func fillRand(data []float64, rng *rand.Rand) {
	for i := range data {
		data[i] = rng.Float64()*2 - 1
	}
}

// Iota returns a tensor of the given shape whose elements are
// 0, 1, 2, ... in row-major order. Useful for tests where every element
// must be distinguishable.
func Iota(shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float64(i)
	}
	return t
}

// dims renders a shape or index list like fmt's %v. The kernels' panic
// messages use it instead of fmt so their slice arguments stay on the
// caller's stack: a slice handed to fmt escapes to the heap.
func dims(s []int) string {
	b := []byte{'['}
	for i, d := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return string(append(b, ']'))
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	fillStrides(strides, shape)
	return strides
}

func fillStrides(strides, shape []int) {
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= shape[i]
	}
}

// setShape reinterprets t's row-major data under a new shape of the
// same element count, reusing the header's slices when the rank fits.
func (t *Tensor) setShape(shape []int) {
	t.shape = append(t.shape[:0], shape...)
	if cap(t.strides) < len(shape) {
		t.strides = make([]int, len(shape))
	}
	t.strides = t.strides[:len(shape)]
	fillStrides(t.strides, shape)
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.data) }

// Data returns the underlying row-major element slice. The slice is the
// live backing store, not a copy; mutating it mutates the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(index ...int) float64 {
	return t.data[t.offset(index)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, index ...int) {
	t.data[t.offset(index)] = v
}

func (t *Tensor) offset(index []int) int {
	if len(index) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(index), t.shape))
	}
	off := 0
	for i, ix := range index {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", index, t.shape))
		}
		off += ix * t.strides[i]
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool { return sameDims(t.shape, o.shape) }

// HasShape reports whether t's shape is shape, without copying either.
func (t *Tensor) HasShape(shape []int) bool { return sameDims(t.shape, shape) }

// Equal reports whether t and o have the same shape and the same bits
// in every element: −0 is not +0, and a NaN equals a NaN with the same
// payload. It is the byte contract's comparison.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if math.Float64bits(v) != math.Float64bits(o.data[i]) {
			return false
		}
	}
	return true
}

// AllClose reports whether t and o have the same shape and element-wise
// values within the given absolute-plus-relative tolerance:
// |a-b| <= tol * (1 + max(|a|, |b|)). Decomposed einsums reassociate
// floating-point additions, so equivalence checks must tolerate rounding.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	return t.MaxDifference(o) <= tol
}

// MaxDifference returns the maximum normalized element-wise difference
// between t and o, or +Inf if the shapes differ.
func (t *Tensor) MaxDifference(o *Tensor) float64 {
	if !t.SameShape(o) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range t.data {
		a, b := t.data[i], o.data[i]
		scale := 1 + math.Max(math.Abs(a), math.Abs(b))
		if d := math.Abs(a-b) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// HashBits feeds every element's float64 bit pattern, little-endian in
// row-major order, tensor after tensor, to h: equal digests mean
// bit-identical values. The bytes go through one 4 KiB block rather
// than one Write per element — a hash's per-call overhead otherwise
// costs more than the hashing. The block is pooled: it escapes through
// h.Write, so a local one would be a heap allocation per call.
func HashBits(h hash.Hash, tensors ...*Tensor) {
	block := hashBlocks.Get().(*[4096]byte)
	defer hashBlocks.Put(block)
	n := 0
	for _, t := range tensors {
		for _, v := range t.data {
			binary.LittleEndian.PutUint64(block[n:], math.Float64bits(v))
			if n += 8; n == len(block) {
				h.Write(block[:])
				n = 0
			}
		}
	}
	h.Write(block[:n])
}

var hashBlocks = sync.Pool{New: func() any { return new([4096]byte) }}

// String renders the tensor's shape and, for small tensors, its values.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	}
	return b.String()
}
