package tensor

import (
	"math/rand"
	"testing"
)

// The data-movement ops were once defined element by element over a
// row-major index walk. The walk and those definitions live on here as
// the reference the run-copying kernels in ops.go are checked against.

// indexIterator walks a multi-dimensional index space in row-major order.
// next reports false once the space is exhausted. A zero-size space yields
// no indices.
type indexIterator struct {
	shape []int
	index []int
	done  bool
}

func newIndexIterator(shape []int) *indexIterator {
	it := &indexIterator{shape: shape, index: make([]int, len(shape))}
	for _, d := range shape {
		if d == 0 {
			it.done = true
		}
	}
	return it
}

// next returns the current index (a fresh slice) and advances.
func (it *indexIterator) next() ([]int, bool) {
	if it.done {
		return nil, false
	}
	out := append([]int(nil), it.index...)
	for i := len(it.index) - 1; i >= 0; i-- {
		it.index[i]++
		if it.index[i] < it.shape[i] {
			return out, true
		}
		it.index[i] = 0
	}
	it.done = true
	return out, true
}

// refGather builds a tensor of outShape whose element at idx is
// t[src(idx)], element by element.
func refGather(t *Tensor, outShape []int, src func(idx []int) []int) *Tensor {
	out := New(outShape...)
	it := newIndexIterator(outShape)
	for idx, ok := it.next(); ok; idx, ok = it.next() {
		out.data[out.offset(idx)] = t.data[t.offset(src(idx))]
	}
	return out
}

// refScatter writes every element of src into out at dst(idx).
func refScatter(out, src *Tensor, dst func(idx []int) []int) {
	it := newIndexIterator(src.shape)
	for idx, ok := it.next(); ok; idx, ok = it.next() {
		out.data[out.offset(dst(idx))] = src.data[src.offset(idx)]
	}
}

func shifted(by []int) func([]int) []int {
	return func(idx []int) []int {
		out := make([]int, len(idx))
		for i := range idx {
			out[i] = idx[i] + by[i]
		}
		return out
	}
}

func refClamp(t *Tensor, starts, sizes []int) []int {
	out := make([]int, len(starts))
	for i, s := range starts {
		if s < 0 {
			s = 0
		}
		if s > t.shape[i]-sizes[i] {
			s = t.shape[i] - sizes[i]
		}
		out[i] = s
	}
	return out
}

func refSlice(t *Tensor, starts, limits []int) *Tensor {
	shape := make([]int, len(starts))
	for i := range starts {
		shape[i] = limits[i] - starts[i]
	}
	return refGather(t, shape, shifted(starts))
}

func refDynamicUpdateSlice(t, update *Tensor, starts []int) *Tensor {
	out := t.Clone()
	refScatter(out, update, shifted(refClamp(t, starts, update.shape)))
	return out
}

func refConcat(axis int, tensors ...*Tensor) *Tensor {
	shape := tensors[0].Shape()
	shape[axis] = 0
	for _, t := range tensors {
		shape[axis] += t.shape[axis]
	}
	out := New(shape...)
	at := make([]int, len(shape))
	for _, t := range tensors {
		refScatter(out, t, shifted(at))
		at[axis] += t.shape[axis]
	}
	return out
}

func refPad(t *Tensor, low, high []int, v float64) *Tensor {
	shape := make([]int, t.Rank())
	for i := range shape {
		shape[i] = low[i] + t.shape[i] + high[i]
	}
	out := New(shape...)
	for i := range out.data {
		out.data[i] = v
	}
	refScatter(out, t, shifted(low))
	return out
}

func refTranspose(t *Tensor, perm []int) *Tensor {
	shape := make([]int, len(perm))
	for i, p := range perm {
		shape[i] = t.shape[p]
	}
	return refGather(t, shape, func(idx []int) []int {
		src := make([]int, len(idx))
		for i, p := range perm {
			src[p] = idx[i]
		}
		return src
	})
}

// TestBlockCopyMatchesElementwise drives every data-movement op over
// random ranks, shapes (zero-size and unit dimensions included),
// windows and permutations, in both the allocating form and the
// destination-passing form over a dirty destination, and requires the
// element-wise reference's bytes.
func TestBlockCopyMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	dirty := func(shape []int) *Tensor {
		d := New(shape...)
		for i := range d.data {
			d.data[i] = -777
		}
		return d
	}
	check := func(what string, want *Tensor, into func(dst *Tensor) *Tensor) {
		t.Helper()
		if got := into(nil); !got.Equal(want) {
			t.Fatalf("%s: allocating form %v, want %v", what, got, want)
		}
		dst := dirty(want.shape)
		if got := into(dst); got != dst || !got.Equal(want) {
			t.Fatalf("%s: destination form %v, want %v", what, got, want)
		}
	}
	for trial := 0; trial < 400; trial++ {
		rank := 1 + rng.Intn(4)
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = rng.Intn(5)
			if rng.Intn(8) == 0 {
				shape[i] = 0
			}
		}
		x := Rand(rng, shape...)

		starts, limits, sizes := make([]int, rank), make([]int, rank), make([]int, rank)
		wild := make([]int, rank) // unclamped dynamic starts
		for i, d := range shape {
			starts[i] = rng.Intn(d + 1)
			limits[i] = starts[i] + rng.Intn(d-starts[i]+1)
			sizes[i] = limits[i] - starts[i]
			wild[i] = rng.Intn(2*d+3) - d - 1
		}
		check("Slice", refSlice(x, starts, limits), func(dst *Tensor) *Tensor { return SliceInto(dst, x, starts, limits) })
		clamped := refClamp(x, wild, sizes)
		climits := make([]int, rank)
		for i := range climits {
			climits[i] = clamped[i] + sizes[i]
		}
		check("DynamicSlice", refSlice(x, clamped, climits), func(dst *Tensor) *Tensor { return DynamicSliceInto(dst, x, wild, sizes) })

		upd := Rand(rng, sizes...)
		wantDUS := refDynamicUpdateSlice(x, upd, wild)
		check("DynamicUpdateSlice", wantDUS, func(dst *Tensor) *Tensor { return DynamicUpdateSliceInto(dst, x, upd, wild) })
		inPlace := x.Clone()
		if got := DynamicUpdateSliceInto(inPlace, inPlace, upd, wild); got != inPlace || !got.Equal(wantDUS) {
			t.Fatalf("DynamicUpdateSlice in place: %v, want %v", got, wantDUS)
		}

		axis := rng.Intn(rank)
		parts := make([]*Tensor, 1+rng.Intn(3))
		for i := range parts {
			ps := append([]int(nil), shape...)
			ps[axis] = rng.Intn(4)
			parts[i] = Rand(rng, ps...)
		}
		check("Concat", refConcat(axis, parts...), func(dst *Tensor) *Tensor { return ConcatInto(dst, axis, parts...) })

		low, high := make([]int, rank), make([]int, rank)
		for i := range low {
			low[i], high[i] = rng.Intn(3), rng.Intn(3)
		}
		check("Pad", refPad(x, low, high, 2.5), func(dst *Tensor) *Tensor { return PadInto(dst, x, low, high, 2.5) })

		perm := rng.Perm(rank)
		check("Transpose", refTranspose(x, perm), func(dst *Tensor) *Tensor { return TransposeInto(dst, x, perm...) })
	}
}

// TestSliceKernelsDoNotAllocatePerElement pins the index-walk fix: the
// walk used to allocate one []int per element (about a thousand for
// this slice). What remains is the result tensor itself.
func TestSliceKernelsDoNotAllocatePerElement(t *testing.T) {
	x := Iota(64, 64)
	upd := Iota(16, 64)
	dst := New(16, 64)
	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Slice", 4, func() { Slice(x, []int{8, 0}, []int{24, 64}) }},
		{"DynamicSlice", 4, func() { DynamicSlice(x, []int{60, -3}, []int{16, 64}) }},
		{"DynamicUpdateSlice", 4, func() { DynamicUpdateSlice(x, upd, []int{60, 0}) }},
		{"Concat", 4, func() { Concat(0, upd, upd) }},
		{"Pad", 4, func() { Pad(upd, []int{1, 1}, []int{1, 1}, 0) }},
		{"Transpose", 4, func() { Transpose(x, 1, 0) }},
		{"SliceInto", 0, func() { SliceInto(dst, x, []int{8, 0}, []int{24, 64}) }},
		{"DynamicUpdateSliceInto in place", 0, func() { DynamicUpdateSliceInto(x, x, upd, []int{3, 0}) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(20, c.f); got > c.max {
			t.Errorf("%s: %.0f allocations per call, want <= %.0f", c.name, got, c.max)
		}
	}
}
