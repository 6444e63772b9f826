package tensor

import "fmt"

// The element-wise ops below use direct loops rather than a shared
// combinator taking a func(x, y float64): the per-element indirect call
// defeats bounds-check elimination and vectorization, roughly tripling
// the cost of the decomposed runtime's accumulate-heavy inner loops.

// Add returns the element-wise sum of a and b, which must share a shape.
func Add(a, b *Tensor) *Tensor {
	out := newElementwise(a, b)
	bd := b.data
	for i, x := range a.data {
		out.data[i] = x + bd[i]
	}
	return out
}

// Sub returns the element-wise difference a - b.
func Sub(a, b *Tensor) *Tensor {
	out := newElementwise(a, b)
	bd := b.data
	for i, x := range a.data {
		out.data[i] = x - bd[i]
	}
	return out
}

// Mul returns the element-wise product of a and b.
func Mul(a, b *Tensor) *Tensor {
	out := newElementwise(a, b)
	bd := b.data
	for i, x := range a.data {
		out.data[i] = x * bd[i]
	}
	return out
}

// Max returns the element-wise maximum of a and b.
func Max(a, b *Tensor) *Tensor {
	out := newElementwise(a, b)
	bd := b.data
	for i, x := range a.data {
		y := bd[i]
		if !(x > y) {
			x = y
		}
		out.data[i] = x
	}
	return out
}

// newElementwise validates the shared shape and allocates the result.
func newElementwise(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	return New(a.shape...)
}

// AddInPlace accumulates b into a and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", a.shape, b.shape))
	}
	for i := range a.data {
		a.data[i] += b.data[i]
	}
	a.noteMutation()
	return a
}

// Scale returns a copy of t with every element multiplied by s.
func Scale(t *Tensor, s float64) *Tensor {
	c := t.Clone()
	for i := range c.data {
		c.data[i] *= s
	}
	return c
}

// Slice extracts the sub-tensor t[starts[0]:limits[0], ...]. Every
// dimension must satisfy 0 <= start <= limit <= dim.
func Slice(t *Tensor, starts, limits []int) *Tensor {
	if len(starts) != t.Rank() || len(limits) != t.Rank() {
		panic(fmt.Sprintf("tensor: Slice bounds rank mismatch for shape %v", t.shape))
	}
	outShape := make([]int, t.Rank())
	for i := range starts {
		if starts[i] < 0 || limits[i] > t.shape[i] || starts[i] > limits[i] {
			panic(fmt.Sprintf("tensor: Slice bounds [%v,%v) invalid for shape %v", starts, limits, t.shape))
		}
		outShape[i] = limits[i] - starts[i]
	}
	out := New(outShape...)
	it := newIndexIterator(outShape)
	src := make([]int, t.Rank())
	for idx, ok := it.next(); ok; idx, ok = it.next() {
		for i := range idx {
			src[i] = idx[i] + starts[i]
		}
		out.data[out.offset(idx)] = t.data[t.offset(src)]
	}
	return out
}

// DynamicSlice extracts a sub-tensor of the given sizes starting at
// starts, clamping the start offsets so the slice stays in bounds — the
// same semantics as XLA's DynamicSlice.
func DynamicSlice(t *Tensor, starts, sizes []int) *Tensor {
	if len(starts) != t.Rank() || len(sizes) != t.Rank() {
		panic(fmt.Sprintf("tensor: DynamicSlice rank mismatch for shape %v", t.shape))
	}
	clamped := make([]int, t.Rank())
	limits := make([]int, t.Rank())
	for i := range starts {
		s := starts[i]
		if s < 0 {
			s = 0
		}
		if s > t.shape[i]-sizes[i] {
			s = t.shape[i] - sizes[i]
		}
		clamped[i] = s
		limits[i] = s + sizes[i]
	}
	return Slice(t, clamped, limits)
}

// DynamicUpdateSlice returns a copy of t with the sub-tensor at starts
// overwritten by update, clamping starts as XLA does.
func DynamicUpdateSlice(t, update *Tensor, starts []int) *Tensor {
	if len(starts) != t.Rank() || update.Rank() != t.Rank() {
		panic(fmt.Sprintf("tensor: DynamicUpdateSlice rank mismatch %v vs %v", t.shape, update.shape))
	}
	clamped := make([]int, t.Rank())
	for i := range starts {
		s := starts[i]
		if s < 0 {
			s = 0
		}
		if s > t.shape[i]-update.shape[i] {
			s = t.shape[i] - update.shape[i]
		}
		clamped[i] = s
	}
	out := t.Clone()
	it := newIndexIterator(update.shape)
	dst := make([]int, t.Rank())
	for idx, ok := it.next(); ok; idx, ok = it.next() {
		for i := range idx {
			dst[i] = idx[i] + clamped[i]
		}
		out.data[out.offset(dst)] = update.data[update.offset(idx)]
	}
	return out
}

// Concat concatenates the given tensors along axis. All inputs must agree
// on every other dimension.
func Concat(axis int, tensors ...*Tensor) *Tensor {
	if len(tensors) == 0 {
		panic("tensor: Concat needs at least one input")
	}
	rank := tensors[0].Rank()
	if axis < 0 || axis >= rank {
		panic(fmt.Sprintf("tensor: Concat axis %d out of range for rank %d", axis, rank))
	}
	outShape := tensors[0].Shape()
	total := 0
	for _, t := range tensors {
		if t.Rank() != rank {
			panic("tensor: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d != axis && t.shape[d] != outShape[d] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch %v vs %v on dim %d", t.shape, outShape, d))
			}
		}
		total += t.shape[axis]
	}
	outShape[axis] = total
	out := New(outShape...)
	offset := 0
	starts := make([]int, rank)
	for _, t := range tensors {
		starts[axis] = offset
		it := newIndexIterator(t.shape)
		dst := make([]int, rank)
		for idx, ok := it.next(); ok; idx, ok = it.next() {
			for i := range idx {
				dst[i] = idx[i] + starts[i]
			}
			out.data[out.offset(dst)] = t.data[t.offset(idx)]
		}
		offset += t.shape[axis]
	}
	return out
}

// Pad returns t padded with padValue: low[i] elements before and high[i]
// elements after dimension i. Negative padding is not supported.
func Pad(t *Tensor, low, high []int, padValue float64) *Tensor {
	if len(low) != t.Rank() || len(high) != t.Rank() {
		panic(fmt.Sprintf("tensor: Pad rank mismatch for shape %v", t.shape))
	}
	outShape := make([]int, t.Rank())
	for i := range outShape {
		if low[i] < 0 || high[i] < 0 {
			panic("tensor: Pad does not support negative padding")
		}
		outShape[i] = low[i] + t.shape[i] + high[i]
	}
	out := New(outShape...)
	for i := range out.data {
		out.data[i] = padValue
	}
	it := newIndexIterator(t.shape)
	dst := make([]int, t.Rank())
	for idx, ok := it.next(); ok; idx, ok = it.next() {
		for i := range idx {
			dst[i] = idx[i] + low[i]
		}
		out.data[out.offset(dst)] = t.data[t.offset(idx)]
	}
	return out
}

// Reshape returns a tensor with the same row-major data and a new shape.
// The element counts must match.
func Reshape(t *Tensor, shape ...int) *Tensor {
	out := New(shape...)
	if len(out.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v -> %v changes element count", t.shape, shape))
	}
	copy(out.data, t.data)
	return out
}

// Transpose permutes the dimensions of t according to perm, where
// output dimension i is input dimension perm[i].
func Transpose(t *Tensor, perm ...int) *Tensor {
	if len(perm) != t.Rank() {
		panic(fmt.Sprintf("tensor: Transpose perm %v rank mismatch for shape %v", perm, t.shape))
	}
	seen := make([]bool, t.Rank())
	outShape := make([]int, t.Rank())
	for i, p := range perm {
		if p < 0 || p >= t.Rank() || seen[p] {
			panic(fmt.Sprintf("tensor: Transpose perm %v is not a permutation", perm))
		}
		seen[p] = true
		outShape[i] = t.shape[p]
	}
	out := New(outShape...)
	it := newIndexIterator(outShape)
	src := make([]int, t.Rank())
	for idx, ok := it.next(); ok; idx, ok = it.next() {
		for i, p := range perm {
			src[p] = idx[i]
		}
		out.data[out.offset(idx)] = t.data[t.offset(src)]
	}
	return out
}

// Split partitions t into parts equal chunks along axis; the dimension
// size must be divisible by parts.
func Split(t *Tensor, axis, parts int) []*Tensor {
	if axis < 0 || axis >= t.Rank() {
		panic(fmt.Sprintf("tensor: Split axis %d out of range for shape %v", axis, t.shape))
	}
	if parts <= 0 || t.shape[axis]%parts != 0 {
		panic(fmt.Sprintf("tensor: cannot Split dim %d of shape %v into %d parts", axis, t.shape, parts))
	}
	chunk := t.shape[axis] / parts
	out := make([]*Tensor, parts)
	starts := make([]int, t.Rank())
	limits := t.Shape()
	for p := 0; p < parts; p++ {
		starts[axis] = p * chunk
		limits[axis] = (p + 1) * chunk
		out[p] = Slice(t, starts, limits)
	}
	return out
}
