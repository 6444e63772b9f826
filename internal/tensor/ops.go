package tensor

import "fmt"

// Every op below has a destination-passing form. A nil dst allocates a
// fresh result (value semantics: the operands are never written); a
// non-nil dst must already carry the result shape, its prior contents
// are ignored, and it is overwritten and returned. Where the doc says
// dst may alias an operand the kernel is safe to run in place; nowhere
// else may dst share storage with an operand.

// The element-wise ops use direct loops rather than a shared combinator
// taking a func(x, y float64): the per-element indirect call defeats
// bounds-check elimination and vectorization, roughly tripling the cost
// of the decomposed runtime's accumulate-heavy inner loops.

// Add returns the element-wise sum of a and b, which must share a shape.
func Add(a, b *Tensor) *Tensor { return AddInto(nil, a, b) }

// AddInto writes a+b into dst, which may alias a or b.
func AddInto(dst, a, b *Tensor) *Tensor {
	out := elementwiseDst(dst, a, b)
	ad, bd := a.data, b.data
	for i := range out.data {
		out.data[i] = ad[i] + bd[i]
	}
	return out
}

// Max returns the element-wise maximum of a and b.
func Max(a, b *Tensor) *Tensor { return MaxInto(nil, a, b) }

// MaxInto writes the element-wise maximum into dst, which may alias a
// or b.
func MaxInto(dst, a, b *Tensor) *Tensor {
	out := elementwiseDst(dst, a, b)
	ad, bd := a.data, b.data
	for i := range out.data {
		x, y := ad[i], bd[i]
		if !(x > y) {
			x = y
		}
		out.data[i] = x
	}
	return out
}

// elementwiseDst validates the shared shape and resolves the result.
func elementwiseDst(dst, a, b *Tensor) *Tensor {
	if !a.SameShape(b) {
		panic("tensor: shape mismatch " + dims(a.shape) + " vs " + dims(b.shape))
	}
	return resolveDst(dst, a.shape)
}

// resolveDst returns the tensor an op writes its result to: a fresh
// zeroed one when dst is nil, otherwise dst itself, checked against
// the result shape.
func resolveDst(dst *Tensor, shape []int) *Tensor {
	if dst == nil {
		return New(shape...)
	}
	if !sameDims(dst.shape, shape) {
		panic("tensor: destination shape " + dims(dst.shape) + ", result shape " + dims(shape))
	}
	return dst
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AddInPlace accumulates b into a and returns a.
func AddInPlace(a, b *Tensor) *Tensor { return AddInto(a, a, b) }

// Scale returns a copy of t with every element multiplied by s.
func Scale(t *Tensor, s float64) *Tensor {
	c := t.Clone()
	for i := range c.data {
		c.data[i] *= s
	}
	return c
}

// Zero clears dst (or allocates a zero tensor of the shape when dst is
// nil) and returns it.
func Zero(dst *Tensor, shape ...int) *Tensor {
	out := resolveDst(dst, shape)
	if dst != nil {
		clear(out.data)
	}
	return out
}

// CopyInto copies t into dst; dst may be t itself, which is a no-op.
func CopyInto(dst, t *Tensor) *Tensor {
	if dst == t {
		return t
	}
	out := resolveDst(dst, t.shape)
	copy(out.data, t.data)
	return out
}

// maxBlockRank bounds the rank the block copier walks with stack
// scratch; higher ranks (none in practice) fall back to the heap.
const maxBlockRank = 8

// copyBlock copies the rectangular block of the given extents from src
// (starting at element srcOff, dimension strides srcStrides) to dst.
// Both sides are row-major with a unit innermost stride, so the block
// moves as copies of contiguous runs: the innermost dimension, widened
// over every outer dimension the block spans in full on both sides.
func copyBlock(dst []float64, dstStrides []int, dstOff int, src []float64, srcStrides []int, srcOff int, extents []int) {
	rank := len(extents)
	run := 1
	for _, e := range extents {
		if e == 0 {
			return
		}
	}
	// outer is the number of leading dimensions the odometer walks.
	outer := rank
	for outer > 0 && srcStrides[outer-1] == run && dstStrides[outer-1] == run {
		run *= extents[outer-1]
		outer--
	}
	if outer == 0 {
		copy(dst[dstOff:dstOff+run], src[srcOff:srcOff+run])
		return
	}
	var odoArr [maxBlockRank]int
	odo := odoArr[:]
	if outer > maxBlockRank {
		odo = make([]int, outer)
	}
	for {
		copy(dst[dstOff:dstOff+run], src[srcOff:srcOff+run])
		i := outer - 1
		for ; i >= 0; i-- {
			odo[i]++
			dstOff += dstStrides[i]
			srcOff += srcStrides[i]
			if odo[i] < extents[i] {
				break
			}
			odo[i] = 0
			dstOff -= extents[i] * dstStrides[i]
			srcOff -= extents[i] * srcStrides[i]
		}
		if i < 0 {
			return
		}
	}
}

// Slice extracts the sub-tensor t[starts[0]:limits[0], ...]. Every
// dimension must satisfy 0 <= start <= limit <= dim.
func Slice(t *Tensor, starts, limits []int) *Tensor { return SliceInto(nil, t, starts, limits) }

// SliceInto is Slice writing into dst.
func SliceInto(dst, t *Tensor, starts, limits []int) *Tensor {
	if len(starts) != t.Rank() || len(limits) != t.Rank() {
		panic("tensor: Slice bounds rank mismatch for shape " + dims(t.shape))
	}
	var sizesArr [maxBlockRank]int
	sizes := append(sizesArr[:0], limits...)
	for i := range starts {
		if starts[i] < 0 || limits[i] > t.shape[i] || starts[i] > limits[i] {
			panic("tensor: Slice bounds [" + dims(starts) + "," + dims(limits) + ") invalid for shape " + dims(t.shape))
		}
		sizes[i] -= starts[i]
	}
	return sliceBlock(dst, t, starts, sizes)
}

// sliceBlock copies the in-bounds window of the given sizes at starts
// out of t.
func sliceBlock(dst, t *Tensor, starts, sizes []int) *Tensor {
	out := resolveDst(dst, sizes)
	copyBlock(out.data, out.strides, 0, t.data, t.strides, t.offsetOf(starts), sizes)
	return out
}

// offsetOf returns the flat offset of an in-bounds index.
func (t *Tensor) offsetOf(index []int) int {
	off := 0
	for i, ix := range index {
		off += ix * t.strides[i]
	}
	return off
}

// clampStarts clamps dynamic start offsets so a window of the given
// sizes stays inside t — XLA's DynamicSlice/DynamicUpdateSlice rule —
// appending the result to buf.
func clampStarts(buf []int, t *Tensor, starts, sizes []int) []int {
	for i, s := range starts {
		if s > t.shape[i]-sizes[i] {
			s = t.shape[i] - sizes[i]
		}
		if s < 0 {
			s = 0
		}
		buf = append(buf, s)
	}
	return buf
}

// DynamicSlice extracts a sub-tensor of the given sizes starting at
// starts, clamping the start offsets so the slice stays in bounds — the
// same semantics as XLA's DynamicSlice.
func DynamicSlice(t *Tensor, starts, sizes []int) *Tensor {
	return DynamicSliceInto(nil, t, starts, sizes)
}

// DynamicSliceInto is DynamicSlice writing into dst.
func DynamicSliceInto(dst, t *Tensor, starts, sizes []int) *Tensor {
	if len(starts) != t.Rank() || len(sizes) != t.Rank() {
		panic("tensor: DynamicSlice rank mismatch for shape " + dims(t.shape))
	}
	for i, n := range sizes {
		if n < 0 || n > t.shape[i] {
			panic("tensor: DynamicSlice sizes " + dims(sizes) + " invalid for shape " + dims(t.shape))
		}
	}
	var buf [maxBlockRank]int
	return sliceBlock(dst, t, clampStarts(buf[:0], t, starts, sizes), sizes)
}

// DynamicUpdateSlice returns a copy of t with the sub-tensor at starts
// overwritten by update, clamping starts as XLA does.
func DynamicUpdateSlice(t, update *Tensor, starts []int) *Tensor {
	return DynamicUpdateSliceInto(nil, t, update, starts)
}

// DynamicUpdateSliceInto is DynamicUpdateSlice writing into dst. dst
// may be t itself: the update then lands in place and only its window
// is touched.
func DynamicUpdateSliceInto(dst, t, update *Tensor, starts []int) *Tensor {
	if len(starts) != t.Rank() || update.Rank() != t.Rank() {
		panic("tensor: DynamicUpdateSlice rank mismatch " + dims(t.shape) + " vs " + dims(update.shape))
	}
	for i, n := range update.shape {
		if n > t.shape[i] {
			panic("tensor: DynamicUpdateSlice update " + dims(update.shape) + " exceeds " + dims(t.shape))
		}
	}
	out := CopyInto(dst, t)
	var buf [maxBlockRank]int
	at := out.offsetOf(clampStarts(buf[:0], t, starts, update.shape))
	copyBlock(out.data, out.strides, at, update.data, update.strides, 0, update.shape)
	return out
}

// Concat concatenates the given tensors along axis. All inputs must agree
// on every other dimension.
func Concat(axis int, tensors ...*Tensor) *Tensor { return ConcatInto(nil, axis, tensors...) }

// ConcatInto is Concat writing into dst.
func ConcatInto(dst *Tensor, axis int, tensors ...*Tensor) *Tensor {
	if len(tensors) == 0 {
		panic("tensor: Concat needs at least one input")
	}
	rank := tensors[0].Rank()
	if axis < 0 || axis >= rank {
		panic(fmt.Sprintf("tensor: Concat axis %d out of range for rank %d", axis, rank))
	}
	var shapeArr [maxBlockRank]int
	outShape := append(shapeArr[:0], tensors[0].shape...)
	total := 0
	for _, t := range tensors {
		if t.Rank() != rank {
			panic("tensor: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d != axis && t.shape[d] != outShape[d] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch %s vs %s on dim %d", dims(t.shape), dims(outShape), d))
			}
		}
		total += t.shape[axis]
	}
	outShape[axis] = total
	out := resolveDst(dst, outShape)
	at := 0
	for _, t := range tensors {
		copyBlock(out.data, out.strides, at, t.data, t.strides, 0, t.shape)
		at += t.shape[axis] * out.strides[axis]
	}
	return out
}

// Pad returns t padded with padValue: low[i] elements before and high[i]
// elements after dimension i. Negative padding is not supported.
func Pad(t *Tensor, low, high []int, padValue float64) *Tensor {
	return PadInto(nil, t, low, high, padValue)
}

// PadInto is Pad writing into dst.
func PadInto(dst, t *Tensor, low, high []int, padValue float64) *Tensor {
	if len(low) != t.Rank() || len(high) != t.Rank() {
		panic("tensor: Pad rank mismatch for shape " + dims(t.shape))
	}
	var shapeArr [maxBlockRank]int
	outShape := shapeArr[:0]
	for i, d := range t.shape {
		if low[i] < 0 || high[i] < 0 {
			panic("tensor: Pad does not support negative padding")
		}
		outShape = append(outShape, low[i]+d+high[i])
	}
	out := resolveDst(dst, outShape)
	for i := range out.data {
		out.data[i] = padValue
	}
	copyBlock(out.data, out.strides, out.offsetOf(low), t.data, t.strides, 0, t.shape)
	return out
}

// Reshape returns a tensor with the same row-major data and a new shape.
// The element counts must match.
func Reshape(t *Tensor, shape ...int) *Tensor { return ReshapeInto(nil, t, shape...) }

// ReshapeInto is Reshape writing into dst. dst may be t itself: the
// tensor is then reinterpreted in place, its data untouched.
func ReshapeInto(dst, t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic("tensor: Reshape " + dims(t.shape) + " -> " + dims(shape) + " changes element count")
	}
	if dst == t {
		t.setShape(shape)
		return t
	}
	out := resolveDst(dst, shape)
	copy(out.data, t.data)
	return out
}

// Transpose permutes the dimensions of t according to perm, where
// output dimension i is input dimension perm[i].
func Transpose(t *Tensor, perm ...int) *Tensor { return TransposeInto(nil, t, perm...) }

// TransposeInto is Transpose writing into dst.
func TransposeInto(dst, t *Tensor, perm ...int) *Tensor {
	if len(perm) != t.Rank() {
		panic("tensor: Transpose perm " + dims(perm) + " rank mismatch for shape " + dims(t.shape))
	}
	var seen uint64 // einsum labels bound the rank at 52
	var shapeArr [maxBlockRank]int
	outShape := shapeArr[:0]
	for _, p := range perm {
		if p < 0 || p >= t.Rank() || seen&(1<<p) != 0 {
			panic("tensor: Transpose perm " + dims(perm) + " is not a permutation")
		}
		seen |= 1 << p
		outShape = append(outShape, t.shape[p])
	}
	out := resolveDst(dst, outShape)
	// The result is t packed in perm order: the kernel engine's pack
	// walk, which copies unit-stride innermost runs whole.
	permCopy(out.data, t, perm, true)
	return out
}

// SumSplitInto writes chunk p, along axis, of the element-wise sum of
// the inputs into dsts[p]: SplitInto of the sum into len(inputs) parts,
// without the sum. Each chunk is its window of the first input plus, in
// input order, the same window of every other input, so every element
// is summed in the order AddInto would sum it. The inputs share one
// shape; a nil dsts allocates the chunks, otherwise it must hold one
// destination per input, none sharing storage with an input, and is
// returned.
func SumSplitInto(dsts, inputs []*Tensor, axis int) []*Tensor {
	parts := len(inputs)
	if parts == 0 {
		panic("tensor: SumSplit of no inputs")
	}
	shape := inputs[0].shape
	if axis < 0 || axis >= len(shape) || shape[axis]%parts != 0 {
		panic(fmt.Sprintf("tensor: cannot SumSplit dim %d of shape %v into %d parts", axis, shape, parts))
	}
	for _, in := range inputs[1:] {
		if !sameDims(in.shape, shape) {
			panic("tensor: shape mismatch " + dims(in.shape) + " vs " + dims(shape))
		}
	}
	if dsts == nil {
		dsts = make([]*Tensor, parts)
	} else if len(dsts) != parts {
		panic(fmt.Sprintf("tensor: SumSplit into %d parts given %d destinations", parts, len(dsts)))
	}
	var chunkArr [maxBlockRank]int
	chunk := append(chunkArr[:0], shape...)
	chunk[axis] /= parts
	// Row-major, chunk p is outer runs of run elements, one per index
	// of the dimensions before axis, row elements apart.
	outer, run := 1, 1
	for _, d := range shape[:axis] {
		outer *= d
	}
	for _, d := range chunk[axis:] {
		run *= d
	}
	row := parts * run
	for p := range dsts {
		out := resolveDst(dsts[p], chunk)
		for o := 0; o < outer; o++ {
			acc := out.data[o*run : (o+1)*run]
			at := o*row + p*run
			copy(acc, inputs[0].data[at:at+run])
			for _, in := range inputs[1:] {
				for i, v := range in.data[at : at+run] {
					acc[i] += v
				}
			}
		}
		dsts[p] = out
	}
	return dsts
}

// CopyWindowInto copies the window of src at srcStarts, of the given
// sizes, into dst at dstStarts and returns dst; the rest of dst is left
// as it was. Both windows must lie inside their tensors, which must not
// share storage.
func CopyWindowInto(dst *Tensor, dstStarts []int, src *Tensor, srcStarts, sizes []int) *Tensor {
	if len(dstStarts) != dst.Rank() || len(srcStarts) != src.Rank() || len(sizes) != src.Rank() || src.Rank() != dst.Rank() {
		panic("tensor: CopyWindow rank mismatch " + dims(dst.shape) + " vs " + dims(src.shape))
	}
	for i, n := range sizes {
		if n < 0 || srcStarts[i] < 0 || dstStarts[i] < 0 || srcStarts[i]+n > src.shape[i] || dstStarts[i]+n > dst.shape[i] {
			panic("tensor: CopyWindow of " + dims(sizes) + " from " + dims(srcStarts) + " in " + dims(src.shape) +
				" to " + dims(dstStarts) + " in " + dims(dst.shape) + " out of bounds")
		}
	}
	copyBlock(dst.data, dst.strides, dst.offsetOf(dstStarts), src.data, src.strides, src.offsetOf(srcStarts), sizes)
	return dst
}

// Split partitions t into parts equal chunks along axis; the dimension
// size must be divisible by parts.
func Split(t *Tensor, axis, parts int) []*Tensor { return SplitInto(nil, t, axis, parts) }

// SplitInto is Split writing chunk p into dsts[p]. A nil dsts allocates
// the chunks; otherwise it must hold one destination per part, and is
// returned.
func SplitInto(dsts []*Tensor, t *Tensor, axis, parts int) []*Tensor {
	if axis < 0 || axis >= t.Rank() {
		panic(fmt.Sprintf("tensor: Split axis %d out of range for shape %v", axis, t.shape))
	}
	if parts <= 0 || t.shape[axis]%parts != 0 {
		panic(fmt.Sprintf("tensor: cannot Split dim %d of shape %v into %d parts", axis, t.shape, parts))
	}
	if dsts == nil {
		dsts = make([]*Tensor, parts)
	} else if len(dsts) != parts {
		panic(fmt.Sprintf("tensor: Split into %d parts given %d destinations", parts, len(dsts)))
	}
	chunk := t.shape[axis] / parts
	starts := make([]int, t.Rank())
	sizes := t.Shape()
	sizes[axis] = chunk
	for p := range dsts {
		starts[axis] = p * chunk
		dsts[p] = sliceBlock(dsts[p], t, starts, sizes)
	}
	return dsts
}
