// Package collective implements the reference (functional) semantics of
// the MPI-style collectives used by intra-layer model parallelism. The
// functions operate on one tensor per participating device, ordered by
// the device's position within its group, and return the post-collective
// value(s). The SPMD interpreter delegates to these, and the overlap
// decomposition's equivalence tests use them as ground truth.
//
// Every collective has a destination-passing form, the kernel both
// executors run: the caller passes one buffer per member (in group
// order, each already of the result shape, contents ignored, none
// sharing storage with an input) and every one of them is written in
// full. Where every member receives the same tensor (AllGather,
// AllReduce) the members may name one buffer, which is then written
// once: the interpreter's form, where the concurrent runtime brings one
// arena buffer per member. Nil destinations allocate the results. The
// reduction order is the group order either way, so the two agree bit
// for bit. No collective draws a temporary: a ReduceScatter sums each
// member's window straight into its destination and an AllToAll copies
// each piece straight into place, so the kernels never touch the tensor
// package's free lists, which the runtime's arena and the interpreter's
// borrowing count on.
package collective

import (
	"fmt"

	"overlap/internal/tensor"
)

// AllGatherInto concatenates the group's shards along axis into every
// member's destination: every device receives the same result. It
// returns the first (the one fresh result when dsts is nil).
func AllGatherInto(dsts, shards []*tensor.Tensor, axis int) *tensor.Tensor {
	if len(shards) == 0 {
		panic("collective: AllGather with no shards")
	}
	return replicate(dsts, tensor.ConcatInto(first(dsts, len(shards)), axis, shards...))
}

// ReduceScatterInto element-wise sums the group's inputs and writes
// one shard of the sum per device, split along axis in group order:
// shard i into dsts[i].
func ReduceScatterInto(dsts, inputs []*tensor.Tensor, axis int) []*tensor.Tensor {
	if len(inputs) == 0 {
		panic("collective: ReduceScatter with no inputs")
	}
	return tensor.SumSplitInto(dsts, inputs, axis)
}

// AllReduceInto element-wise sums the group's inputs into every
// member's destination: every device receives the full sum. It returns
// the first (the one fresh result when dsts is nil).
func AllReduceInto(dsts, inputs []*tensor.Tensor) *tensor.Tensor {
	if len(inputs) == 0 {
		panic("collective: AllReduce with no inputs")
	}
	return replicate(dsts, sumInto(first(dsts, len(inputs)), inputs))
}

// sumInto accumulates the inputs into dst (a fresh tensor when nil) in
// group order: the one reduction order of AllReduce and ReduceScatter.
func sumInto(dst *tensor.Tensor, inputs []*tensor.Tensor) *tensor.Tensor {
	acc := tensor.CopyInto(dst, inputs[0])
	for _, in := range inputs[1:] {
		tensor.AddInPlace(acc, in)
	}
	return acc
}

// perMember returns the destinations of a collective whose members get
// different results: dsts itself, checked to hold one per member, or —
// for nil — that many empty places for fresh results.
func perMember(dsts []*tensor.Tensor, members int) []*tensor.Tensor {
	if dsts == nil {
		return make([]*tensor.Tensor, members)
	}
	if len(dsts) != members {
		panic(fmt.Sprintf("collective: %d destinations for %d members", len(dsts), members))
	}
	return dsts
}

// first returns the destination a replicated result is computed into:
// nil (allocate) without destinations, else dsts[0], after checking
// that every member brought one.
func first(dsts []*tensor.Tensor, members int) *tensor.Tensor {
	if dsts == nil {
		return nil
	}
	return perMember(dsts, members)[0]
}

// replicate copies a result computed into dsts[0] to the other members'
// destinations and returns it.
func replicate(dsts []*tensor.Tensor, res *tensor.Tensor) *tensor.Tensor {
	for _, d := range dsts {
		tensor.CopyInto(d, res)
	}
	return res
}

// AllToAllInto splits every device's input into len(inputs) pieces
// along splitAxis and writes into dsts[j] the concatenation of piece j
// from every device (in group order) along concatAxis — the shard
// transpose used by mixture-of-experts dispatch.
func AllToAllInto(dsts, inputs []*tensor.Tensor, splitAxis, concatAxis int) []*tensor.Tensor {
	n := len(inputs)
	if n == 0 {
		panic("collective: AllToAll with no inputs")
	}
	shape := inputs[0].Shape()
	rank := len(shape)
	if splitAxis < 0 || splitAxis >= rank || concatAxis < 0 || concatAxis >= rank || shape[splitAxis]%n != 0 {
		panic(fmt.Sprintf("collective: AllToAll cannot split axis %d and concatenate axis %d of shape %v across %d devices", splitAxis, concatAxis, shape, n))
	}
	dsts = perMember(dsts, n)
	// Piece j of input i is copied straight into window i of result j.
	piece := shape[splitAxis] / n
	sizes := inputs[0].Shape()
	sizes[splitAxis] = piece
	shape[splitAxis] = piece
	shape[concatAxis] *= n
	from, to := make([]int, rank), make([]int, rank)
	for j := range dsts {
		if dsts[j] == nil {
			dsts[j] = tensor.New(shape...)
		}
		from[splitAxis] = j * piece
		for i, in := range inputs {
			to[concatAxis] = i * sizes[concatAxis]
			tensor.CopyWindowInto(dsts[j], to, in, from, sizes)
		}
	}
	return dsts
}

// PermuteInto applies point-to-point transfers over global device ids,
// writing device d's value into dsts[d]: the input of from[d], the
// source of the pair targeting d (PermuteSources resolves a permute's
// pairs into from), or a zero tensor of d's input's shape where from[d]
// is -1 (XLA CollectivePermute semantics). It allocates nothing when
// every dsts entry is set.
func PermuteInto(dsts, inputs []*tensor.Tensor, from []int32) []*tensor.Tensor {
	dsts = perMember(dsts, len(inputs))
	for d, src := range from {
		if src < 0 {
			dsts[d] = tensor.Zero(dsts[d], inputs[d].Shape()...)
		} else {
			dsts[d] = tensor.CopyInto(dsts[d], inputs[src])
		}
	}
	return dsts
}

// PermuteSources resolves a permute's pairs on n devices into the
// column PermuteInto reads: from[d] is the source of the pair
// targeting d, -1 when none does.
func PermuteSources(pairs [][2]int, n int) []int32 {
	from := make([]int32, n)
	for d := range from {
		from[d] = -1
	}
	for _, p := range pairs {
		src, dst := p[0], p[1]
		if src < 0 || src >= n || dst < 0 || dst >= n {
			panic(fmt.Sprintf("collective: permute pair %v out of range for %d devices", p, n))
		}
		if from[dst] >= 0 {
			panic(fmt.Sprintf("collective: permute target %d written twice", dst))
		}
		from[dst] = int32(src)
	}
	return from
}
