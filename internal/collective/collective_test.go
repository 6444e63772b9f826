package collective

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"overlap/internal/tensor"
)

// The value forms below are the collectives with nil destinations: each
// allocates its results.

func AllGather(shards []*tensor.Tensor, axis int) *tensor.Tensor {
	return AllGatherInto(nil, shards, axis)
}

func ReduceScatter(inputs []*tensor.Tensor, axis int) []*tensor.Tensor {
	return ReduceScatterInto(nil, inputs, axis)
}

func AllReduce(inputs []*tensor.Tensor) *tensor.Tensor { return AllReduceInto(nil, inputs) }

func AllToAll(inputs []*tensor.Tensor, splitAxis, concatAxis int) []*tensor.Tensor {
	return AllToAllInto(nil, inputs, splitAxis, concatAxis)
}

func Permute(inputs []*tensor.Tensor, pairs [][2]int) []*tensor.Tensor {
	return PermuteInto(nil, inputs, PermuteSources(pairs, len(inputs)))
}

func randShards(seed int64, n, rows, cols int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.Rand(rng, rows, cols)
	}
	return out
}

func TestAllGatherConcatenatesInOrder(t *testing.T) {
	a := tensor.Iota(1, 2)
	b := tensor.Scale(tensor.Iota(1, 2), 10)
	got := AllGather([]*tensor.Tensor{a, b}, 0)
	want := tensor.FromValues([]int{2, 2}, []float64{0, 1, 0, 10})
	if !got.Equal(want) {
		t.Fatalf("AllGather = %v", got.Data())
	}
}

func TestAllReduceSums(t *testing.T) {
	in := randShards(1, 3, 2, 2)
	got := AllReduce(in)
	want := tensor.Add(tensor.Add(in[0], in[1]), in[2])
	if !got.Equal(want) {
		t.Fatalf("AllReduce wrong")
	}
	// Inputs must not be mutated.
	fresh := randShards(1, 3, 2, 2)
	for i := range in {
		if !in[i].Equal(fresh[i]) {
			t.Fatal("AllReduce mutated an input")
		}
	}
}

func TestReduceScatterIsAllReduceThenSplit(t *testing.T) {
	in := randShards(2, 4, 8, 3)
	shards := ReduceScatter(in, 0)
	if len(shards) != 4 {
		t.Fatalf("ReduceScatter returned %d shards", len(shards))
	}
	full := AllReduce(in)
	back := tensor.Concat(0, shards...)
	if !back.Equal(full) {
		t.Fatal("ReduceScatter shards do not reassemble the AllReduce")
	}
}

// Property: AllReduce == AllGather along a fresh axis is impossible here,
// but the paper's identity AllReduce = ReduceScatter ∘ AllGather holds:
// gathering the ReduceScatter shards reproduces the AllReduce.
func TestAllReduceEqualsReduceScatterThenAllGather(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		rows := n * (1 + rng.Intn(3))
		in := randShards(seed+7, n, rows, 1+rng.Intn(4))
		rs := ReduceScatter(in, 0)
		ag := AllGather(rs, 0)
		return ag.AllClose(AllReduce(in), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllTranspose(t *testing.T) {
	// Two devices, each with a [2,1] tensor split along axis 0.
	d0 := tensor.FromValues([]int{2, 1}, []float64{1, 2})
	d1 := tensor.FromValues([]int{2, 1}, []float64{3, 4})
	out := AllToAll([]*tensor.Tensor{d0, d1}, 0, 0)
	if !out[0].Equal(tensor.FromValues([]int{2, 1}, []float64{1, 3})) {
		t.Fatalf("AllToAll out[0] = %v", out[0].Data())
	}
	if !out[1].Equal(tensor.FromValues([]int{2, 1}, []float64{2, 4})) {
		t.Fatalf("AllToAll out[1] = %v", out[1].Data())
	}
}

// Property: AllToAll is an involution (applying it twice restores the
// original shards).
func TestAllToAllInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		rows := n * (1 + rng.Intn(2))
		in := randShards(seed+3, n, rows, 1+rng.Intn(3))
		twice := AllToAll(AllToAll(in, 0, 0), 0, 0)
		for i := range in {
			if !twice[i].Equal(in[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteShiftLeft(t *testing.T) {
	in := []*tensor.Tensor{tensor.Scalar(10), tensor.Scalar(11), tensor.Scalar(12)}
	// Circular shift left: {0,2},{1,0},{2,1}.
	out := Permute(in, [][2]int{{0, 2}, {1, 0}, {2, 1}})
	if out[0].At() != 11 || out[1].At() != 12 || out[2].At() != 10 {
		t.Fatalf("Permute shift = %v %v %v", out[0].At(), out[1].At(), out[2].At())
	}
}

func TestPermuteNonTargetGetsZeros(t *testing.T) {
	in := []*tensor.Tensor{tensor.Scalar(5), tensor.Scalar(6)}
	out := Permute(in, [][2]int{{0, 1}})
	if out[0].At() != 0 {
		t.Fatalf("non-target output = %v, want 0", out[0].At())
	}
	if out[1].At() != 5 {
		t.Fatalf("target output = %v, want 5", out[1].At())
	}
}

func TestPermuteDuplicateTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate permute target did not panic")
		}
	}()
	in := []*tensor.Tensor{tensor.Scalar(1), tensor.Scalar(2)}
	Permute(in, [][2]int{{0, 1}, {1, 1}})
}

// Property: a full cyclic permutation applied N times is the identity.
func TestPermuteCycleOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		in := randShards(seed, n, 2, 2)
		pairs := make([][2]int, n)
		for i := range pairs {
			pairs[i] = [2]int{i, (i + n - 1) % n}
		}
		cur := in
		for k := 0; k < n; k++ {
			cur = Permute(cur, pairs)
		}
		for i := range in {
			if !cur[i].Equal(in[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// nanDsts returns n destinations of the shape with every cell NaN: a
// cell an …Into form leaves unwritten then differs from everything.
func nanDsts(n int, shape ...int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(shape...)
		for j, data := 0, out[i].Data(); j < len(data); j++ {
			data[j] = math.NaN()
		}
	}
	return out
}

// TestIntoFormsMatchFreshBitwise pins the destination-passing kernels
// the runtime calls against the fresh forms the interpreter calls, bit
// for bit, on inputs whose sums round (tensor.Rand is not dyadic, so a
// different reduction order shows) and for contiguous, strided and
// whole-ring groups of an eight-device run. Every member's destination
// starts all-NaN, so the comparison also requires each to be written in
// full — the shares of a ReduceScatter, the windows of an AllToAll, the
// zero fill of a Permute's non-targets.
func TestIntoFormsMatchFreshBitwise(t *testing.T) {
	const devices, rows, cols = 8, 16, 8
	rng := rand.New(rand.NewSource(41))
	values := make([]*tensor.Tensor, devices)
	before := make([]*tensor.Tensor, devices)
	for d := range values {
		values[d] = tensor.Rand(rng, rows, cols)
		before[d] = values[d].Clone()
	}
	same := func(what string, got, want []*tensor.Tensor) {
		t.Helper()
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s: member %d differs from the fresh form by %v", what, i, got[i].MaxDifference(want[i]))
			}
		}
	}
	replicated := func(res *tensor.Tensor, n int) []*tensor.Tensor {
		out := make([]*tensor.Tensor, n)
		for i := range out {
			out[i] = res
		}
		return out
	}
	for _, group := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 2, 4, 6}, {1, 3, 5, 7}, {3, 7}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		n := len(group)
		in := make([]*tensor.Tensor, n)
		for i, d := range group {
			in[i] = values[d]
		}
		label := func(op string) string { return fmt.Sprintf("%s over %v", op, group) }

		for axis, shape := range [][]int{{rows * n, cols}, {rows, cols * n}} {
			dsts := nanDsts(n, shape...)
			if got := AllGatherInto(dsts, in, axis); got != dsts[0] {
				t.Errorf("%s: returned something other than the first destination", label("AllGatherInto"))
			}
			same(label(fmt.Sprintf("AllGatherInto axis %d", axis)), dsts, replicated(AllGather(in, axis), n))
		}

		dsts := nanDsts(n, rows, cols)
		AllReduceInto(dsts, in)
		same(label("AllReduceInto"), dsts, replicated(AllReduce(in), n))
		// The reduction order is the group order, whoever asks.
		inOrder, reversed := in[0], in[n-1]
		for i := 1; i < n; i++ {
			inOrder = tensor.Add(inOrder, in[i])
			reversed = tensor.Add(reversed, in[n-1-i])
		}
		if !dsts[0].Equal(inOrder) {
			t.Errorf("%s: not the left-to-right sum in group order", label("AllReduceInto"))
		}
		if n > 2 && dsts[0].Equal(reversed) {
			t.Fatalf("%s: the inputs do not distinguish reduction orders; the test pins nothing", label("AllReduceInto"))
		}

		for axis, shape := range [][]int{{rows / n, cols}, {rows, cols / n}} {
			dsts := nanDsts(n, shape...)
			ReduceScatterInto(dsts, in, axis)
			same(label(fmt.Sprintf("ReduceScatterInto axis %d", axis)), dsts, ReduceScatter(in, axis))
		}

		for _, axes := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			shape := []int{rows, cols}
			shape[axes[0]] /= n
			shape[axes[1]] *= n
			dsts := nanDsts(n, shape...)
			AllToAllInto(dsts, in, axes[0], axes[1])
			same(label(fmt.Sprintf("AllToAllInto split %d concat %d", axes[0], axes[1])), dsts, AllToAll(in, axes[0], axes[1]))
		}
	}

	// Devices 1, 4 and 5 are nobody's target and must read zero.
	pairs := [][2]int{{0, 3}, {3, 0}, {5, 2}, {6, 6}, {1, 7}}
	dsts := nanDsts(devices, rows, cols)
	PermuteInto(dsts, values, PermuteSources(pairs, devices))
	same("PermuteInto", dsts, Permute(values, pairs))

	// Every call above read the inputs and wrote only its destinations.
	for d, v := range values {
		if !v.Equal(before[d]) {
			t.Errorf("input %d was written (max diff %v)", d, v.MaxDifference(before[d]))
		}
	}
}
