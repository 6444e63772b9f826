// Package grad implements reverse-mode differentiation over SPMD
// computations, including the collective transposition rules that
// underpin the paper's backward-pass claims (§2.2): the adjoint of an
// AllGather is a ReduceScatter on the same axis and groups, and vice
// versa — which is exactly why "the AllGathers will become
// ReduceScatters" during back-propagation and both decomposition kinds
// appear in a training step.
//
// The supported operation set covers what the partitioned layer
// builders emit in forward passes: einsums, element-wise arithmetic,
// data movement (copy/reshape/transpose/concat/slice), and the
// collectives. Gradients are appended to the same computation, so the
// overlap pipeline can subsequently decompose the backward collectives
// it produced.
package grad

import (
	"fmt"
	"strings"

	"overlap/internal/hlo"
)

// Append differentiates root with respect to each instruction in wrt,
// seeding the root's cotangent with seed (same shape as root; pass a
// ones-like parameter or the loss gradient). The backward instructions
// are appended to c, and the returned map gives the gradient
// instruction for every wrt entry. Instructions that root does not
// depend on get a zero gradient.
func Append(c *hlo.Computation, root, seed *hlo.Instruction, wrt []*hlo.Instruction) (map[*hlo.Instruction]*hlo.Instruction, error) {
	if !sameShape(root.Shape, seed.Shape) {
		return nil, fmt.Errorf("grad: seed shape %v does not match root %v", seed.Shape, root.Shape)
	}

	// Restrict to the instructions root transitively depends on. The
	// walk is iterative with an explicit stack: backward graphs are as
	// deep as the forward program is long, and a recursive walk over a
	// many-thousand-instruction chain would grow the goroutine stack
	// without bound.
	reachable := map[*hlo.Instruction]bool{root: true}
	stack := []*hlo.Instruction{root}
	for len(stack) > 0 {
		in := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, op := range in.Operands {
			if !reachable[op] {
				reachable[op] = true
				stack = append(stack, op)
			}
		}
	}

	// cotangents accumulates partial adjoints per instruction.
	cotangents := map[*hlo.Instruction][]*hlo.Instruction{root: {seed}}
	total := func(in *hlo.Instruction) *hlo.Instruction {
		parts := cotangents[in]
		if len(parts) == 0 {
			return c.Zeros("", in.Shape)
		}
		acc := parts[0]
		for _, p := range parts[1:] {
			acc = c.Add(acc, p)
		}
		return acc
	}

	// Process in reverse schedule order so every instruction's cotangent
	// is complete before it propagates to its operands.
	instrs := c.Instructions()
	for i := len(instrs) - 1; i >= 0; i-- {
		in := instrs[i]
		if !reachable[in] || len(cotangents[in]) == 0 {
			continue
		}
		if in.Op == hlo.OpParameter || in.Op == hlo.OpConstant || in.Op == hlo.OpZero {
			continue
		}
		dy := total(in)
		cotangents[in] = []*hlo.Instruction{dy}
		adjs, err := adjoints(c, in, dy)
		if err != nil {
			return nil, err
		}
		for idx, adj := range adjs {
			if adj == nil {
				continue
			}
			op := in.Operands[idx]
			cotangents[op] = append(cotangents[op], adj)
		}
	}

	out := make(map[*hlo.Instruction]*hlo.Instruction, len(wrt))
	for _, w := range wrt {
		out[w] = total(w)
	}
	return out, nil
}

// adjoints returns the cotangent contribution for each operand of in,
// given in's cotangent dy. A nil entry means no contribution (e.g. the
// start half of an async pair).
func adjoints(c *hlo.Computation, in, dy *hlo.Instruction) ([]*hlo.Instruction, error) {
	switch in.Op {
	case hlo.OpAdd:
		return []*hlo.Instruction{dy, dy}, nil

	case hlo.OpCopy:
		return []*hlo.Instruction{dy}, nil

	case hlo.OpReshape:
		return []*hlo.Instruction{c.Reshape(dy, in.Operands[0].Shape...)}, nil

	case hlo.OpTranspose:
		inv := make([]int, len(in.Perm))
		for i, p := range in.Perm {
			inv[p] = i
		}
		return []*hlo.Instruction{c.Transpose(dy, inv...)}, nil

	case hlo.OpEinsum:
		return einsumAdjoints(c, in, dy)

	case hlo.OpConcat:
		out := make([]*hlo.Instruction, len(in.Operands))
		offset := 0
		for i, op := range in.Operands {
			starts := make([]int, len(in.Shape))
			limits := append([]int(nil), in.Shape...)
			starts[in.Axis] = offset
			limits[in.Axis] = offset + op.Shape[in.Axis]
			out[i] = c.Slice(dy, starts, limits)
			offset += op.Shape[in.Axis]
		}
		return out, nil

	case hlo.OpSlice:
		low := append([]int(nil), in.Starts...)
		high := make([]int, len(in.Shape))
		for d := range high {
			high[d] = in.Operands[0].Shape[d] - in.Limits[d]
		}
		return []*hlo.Instruction{c.Pad(dy, low, high, 0)}, nil

	case hlo.OpAllGather:
		// Adjoint of gather-and-concatenate is reduce-and-scatter: each
		// device keeps the summed cotangent of the shard it contributed.
		return []*hlo.Instruction{c.ReduceScatter(dy, in.CollectiveAxis, in.Groups)}, nil

	case hlo.OpReduceScatter:
		// Adjoint of reduce-and-scatter is gather: every contribution
		// receives the cotangent of the shard it was reduced into.
		return []*hlo.Instruction{c.AllGather(dy, in.CollectiveAxis, in.Groups)}, nil

	case hlo.OpAllReduce:
		// Summing over the group is self-adjoint.
		return []*hlo.Instruction{c.AllReduce(dy, in.Groups)}, nil

	case hlo.OpCollectivePermute:
		// The adjoint permutation reverses every source→target pair.
		rev := make([]hlo.SourceTargetPair, len(in.Pairs))
		for i, p := range in.Pairs {
			rev[i] = hlo.SourceTargetPair{Source: p.Target, Target: p.Source}
		}
		return []*hlo.Instruction{c.CollectivePermute(dy, rev)}, nil

	case hlo.OpTuple:
		return nil, fmt.Errorf("grad: differentiate a tuple operand, not the tuple")

	default:
		return nil, fmt.Errorf("grad: no adjoint rule for %s (%s)", in.Op, in.Name)
	}
}

// einsumAdjoints derives the two operand adjoints of a two-operand
// einsum by the standard transpose rule: dA = einsum(out,B -> A) and
// dB = einsum(out,A -> B). Every label of an operand must appear in the
// output or the other operand (true of matmul-like specs; a label
// summed away from a single operand would need a broadcast rule).
func einsumAdjoints(c *hlo.Computation, in, dy *hlo.Instruction) ([]*hlo.Instruction, error) {
	spec, err := in.ParsedEinsum()
	if err != nil {
		return nil, err
	}
	if len(spec.Inputs) != 2 {
		return nil, fmt.Errorf("grad: einsum %s is not two-operand", in.Name)
	}
	mk := func(side int) (*hlo.Instruction, error) {
		self, other := spec.Inputs[side], spec.Inputs[1-side]
		for i := 0; i < len(self); i++ {
			l := self[i]
			if !strings.ContainsRune(spec.Output, rune(l)) && !strings.ContainsRune(other, rune(l)) {
				return nil, fmt.Errorf("grad: einsum %s sums label %q away from one operand", in.Name, l)
			}
		}
		adjSpec := spec.Output + "," + other + "->" + self
		return c.Einsum(adjSpec, dy, in.Operands[1-side]), nil
	}
	dA, err := mk(0)
	if err != nil {
		return nil, err
	}
	dB, err := mk(1)
	if err != nil {
		return nil, err
	}
	return []*hlo.Instruction{dA, dB}, nil
}

func sameShape(a, b []int) bool {
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
