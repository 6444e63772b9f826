package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddSubMulMax(t *testing.T) {
	a := FromValues([]int{2, 2}, []float64{1, 2, 3, 4})
	b := FromValues([]int{2, 2}, []float64{4, 3, 2, 1})
	if got := Add(a, b); !got.Equal(FromValues([]int{2, 2}, []float64{5, 5, 5, 5})) {
		t.Fatalf("Add = %v", got)
	}
	if got := Max(a, b); !got.Equal(FromValues([]int{2, 2}, []float64{4, 3, 3, 4})) {
		t.Fatalf("Max = %v", got)
	}
}

func TestAddInPlaceAccumulates(t *testing.T) {
	a := Iota(2, 2)
	b := Iota(2, 2)
	got := AddInPlace(a, b)
	if got != a {
		t.Fatal("AddInPlace must return its receiver")
	}
	if !a.Equal(Scale(Iota(2, 2), 2)) {
		t.Fatalf("AddInPlace result = %v", a.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	Add(New(2, 2), New(2, 3))
}

func TestSliceBasic(t *testing.T) {
	x := Iota(3, 4)
	s := Slice(x, []int{1, 1}, []int{3, 3})
	want := FromValues([]int{2, 2}, []float64{5, 6, 9, 10})
	if !s.Equal(want) {
		t.Fatalf("Slice = %v, want %v", s.Data(), want.Data())
	}
}

func TestSliceFullIsIdentity(t *testing.T) {
	x := Iota(3, 4)
	s := Slice(x, []int{0, 0}, []int{3, 4})
	if !s.Equal(x) {
		t.Fatal("full Slice must equal the input")
	}
}

func TestDynamicSliceClamping(t *testing.T) {
	x := Iota(4)
	// Start 3 with size 2 exceeds the bound; XLA clamps the start to 2.
	s := DynamicSlice(x, []int{3}, []int{2})
	if !s.Equal(FromValues([]int{2}, []float64{2, 3})) {
		t.Fatalf("clamped DynamicSlice = %v", s.Data())
	}
	// Negative starts clamp to zero.
	s = DynamicSlice(x, []int{-5}, []int{2})
	if !s.Equal(FromValues([]int{2}, []float64{0, 1})) {
		t.Fatalf("negative-start DynamicSlice = %v", s.Data())
	}
}

func TestDynamicUpdateSlice(t *testing.T) {
	x := New(2, 4)
	u := FromValues([]int{2, 2}, []float64{1, 2, 3, 4})
	got := DynamicUpdateSlice(x, u, []int{0, 2})
	want := FromValues([]int{2, 4}, []float64{0, 0, 1, 2, 0, 0, 3, 4})
	if !got.Equal(want) {
		t.Fatalf("DynamicUpdateSlice = %v, want %v", got.Data(), want.Data())
	}
	if x.At(0, 2) != 0 {
		t.Fatal("DynamicUpdateSlice mutated its input")
	}
}

func TestDynamicUpdateSliceClamps(t *testing.T) {
	x := New(4)
	u := FromValues([]int{2}, []float64{7, 8})
	got := DynamicUpdateSlice(x, u, []int{9})
	want := FromValues([]int{4}, []float64{0, 0, 7, 8})
	if !got.Equal(want) {
		t.Fatalf("clamped DynamicUpdateSlice = %v", got.Data())
	}
}

func TestConcatAxis0And1(t *testing.T) {
	a := Iota(1, 2)
	b := Scale(Iota(1, 2), 10)
	c0 := Concat(0, a, b)
	if !c0.Equal(FromValues([]int{2, 2}, []float64{0, 1, 0, 10})) {
		t.Fatalf("Concat axis 0 = %v", c0.Data())
	}
	c1 := Concat(1, a, b)
	if !c1.Equal(FromValues([]int{1, 4}, []float64{0, 1, 0, 10})) {
		t.Fatalf("Concat axis 1 = %v", c1.Data())
	}
}

func TestSplitConcatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := Rand(rng, 4, 6)
	for axis := 0; axis < 2; axis++ {
		parts := Split(x, axis, 2)
		back := Concat(axis, parts...)
		if !back.Equal(x) {
			t.Fatalf("Split/Concat round trip failed on axis %d", axis)
		}
	}
}

func TestPadThenSliceRecovers(t *testing.T) {
	x := Iota(2, 3)
	p := Pad(x, []int{1, 0}, []int{0, 2}, -1)
	if got := p.Shape(); got[0] != 3 || got[1] != 5 {
		t.Fatalf("Pad shape = %v, want [3 5]", got)
	}
	if p.At(0, 0) != -1 || p.At(2, 4) != -1 {
		t.Fatal("Pad fill value missing")
	}
	back := Slice(p, []int{1, 0}, []int{3, 3})
	if !back.Equal(x) {
		t.Fatal("Slice of Pad does not recover the original")
	}
}

// TestConcatAsMaxOfPads verifies the fusion-friendliness identity from
// §5.4.3 of the paper: Concat(a, b) == Max(PadHigh(a), PadLow(b)) when
// padding with -Inf-like small values is replaced by zero-padding of
// non-negative data. Here we use the exact rewrite on shifted data.
func TestConcatAsMaxOfPads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Rand(rng, 2, 3)
	b := Rand(rng, 2, 3)
	// Shift into positive territory so zero-padding acts as the identity
	// element of Max, mirroring the pad-with-lowest trick.
	a = Add(a, Scale(onesLike(a), 2))
	b = Add(b, Scale(onesLike(b), 2))
	concat := Concat(1, a, b)
	rewritten := Max(
		Pad(a, []int{0, 0}, []int{0, 3}, 0),
		Pad(b, []int{0, 3}, []int{0, 0}, 0),
	)
	if !concat.Equal(rewritten) {
		t.Fatal("Concat != Max(PadHigh, PadLow) rewrite")
	}
}

func onesLike(t *Tensor) *Tensor {
	o := New(t.Shape()...)
	for i := range o.Data() {
		o.Data()[i] = 1
	}
	return o
}

func TestReshapePreservesData(t *testing.T) {
	x := Iota(2, 6)
	y := Reshape(x, 3, 4)
	for i := range x.Data() {
		if x.Data()[i] != y.Data()[i] {
			t.Fatal("Reshape permuted data")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape changing element count did not panic")
		}
	}()
	Reshape(x, 5, 5)
}

func TestTranspose(t *testing.T) {
	x := Iota(2, 3)
	y := Transpose(x, 1, 0)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("Transpose shape = %v", y.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if x.At(i, j) != y.At(j, i) {
				t.Fatal("Transpose values wrong")
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := Rand(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4))
		return Transpose(Transpose(x, 2, 0, 1), 1, 2, 0).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DynamicUpdateSlice(zeros, shard_i, offset_i) summed over all
// shards equals the original tensor — the invariant behind the AllGather
// decomposition's result assembly.
func TestShardedUpdateReassembles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := 1 + rng.Intn(4)
		rows := parts * (1 + rng.Intn(3))
		cols := 1 + rng.Intn(5)
		x := Rand(rng, rows, cols)
		shards := Split(x, 0, parts)
		acc := New(rows, cols)
		for i, s := range shards {
			acc = Add(acc, DynamicUpdateSlice(New(rows, cols), s, []int{i * rows / parts, 0}))
		}
		return acc.Equal(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkElementwiseAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Rand(rng, 256, 256)
	y := Rand(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add(x, y)
	}
}

// TestSumSplitIsSplitOfTheSum: summing each chunk's window in input
// order is SplitInto of the sum AddInto accumulates, bit for bit, along
// every axis, into fresh and into recycled destinations.
func TestSumSplitIsSplitOfTheSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const parts = 3
	shape := []int{6, 3, 9}
	inputs := make([]*Tensor, parts)
	for i := range inputs {
		inputs[i] = Rand(rng, shape...)
	}
	sum := inputs[0].Clone()
	for _, in := range inputs[1:] {
		AddInPlace(sum, in)
	}
	for axis := range shape {
		want := Split(sum, axis, parts)
		reused := make([]*Tensor, parts)
		for p := range reused {
			reused[p] = Rand(rng, want[p].shape...)
		}
		for name, dsts := range map[string][]*Tensor{"fresh": nil, "reused": reused} {
			got := SumSplitInto(dsts, inputs, axis)
			for p := range want {
				if !got[p].Equal(want[p]) {
					t.Fatalf("axis %d, %s destinations: chunk %d differs from the split sum", axis, name, p)
				}
			}
		}
	}
}

// TestCopyWindowIsSliceThenUpdate: a window copied straight across is
// what slicing it out and updating it in lands, and nothing else moves.
func TestCopyWindowIsSliceThenUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src, dst := Rand(rng, 4, 6, 5), Rand(rng, 5, 3, 8)
	from, to, sizes := []int{1, 2, 0}, []int{3, 0, 2}, []int{2, 3, 5}
	limits := []int{3, 5, 5}
	want := DynamicUpdateSlice(dst, Slice(src, from, limits), to)
	if got := CopyWindowInto(dst, to, src, from, sizes); got != dst || !got.Equal(want) {
		t.Fatal("the copied window differs from slice-then-update")
	}
}
