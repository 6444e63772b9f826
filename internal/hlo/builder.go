package hlo

import (
	"fmt"
	"slices"

	"overlap/internal/tensor"
)

// The builder methods construct instructions with inferred shapes and
// append them to the computation's schedule. They panic on malformed
// graphs: callers are compiler passes and model builders, so a bad shape
// is a bug, not an input error.

func (c *Computation) build(in *Instruction) *Instruction {
	built, err := c.tryBuild(in)
	if err != nil {
		panic("hlo: " + err.Error())
	}
	return built
}

// tryBuild is build for the parser, whose instructions are input: a
// malformed one is an error and the computation is left as it was.
func (c *Computation) tryBuild(in *Instruction) (*Instruction, error) {
	if in.Attrs == nil {
		in.Attrs = &noAttrs
	}
	if in.Op == OpEinsum {
		// A malformed einsum is inferShape's to report.
		in.einsum, _ = deriveEinsumFacts(in)
	}
	shape, err := inferShape(in)
	if err != nil {
		return nil, fmt.Errorf("building %s in %s: %v", in.Op, c.Name, err)
	}
	if in.Op != OpParameter && in.Op != OpReshape && in.Op != OpZero {
		in.Shape = shape
	}
	return c.add(in), nil
}

// Parameter declares computation input number index with the given shape.
func (c *Computation) Parameter(index int, name string, shape []int) *Instruction {
	return c.build(&Instruction{
		Op:         OpParameter,
		Name:       name,
		ParamIndex: index,
		Shape:      append([]int(nil), shape...),
	})
}

// Constant embeds a literal tensor.
func (c *Computation) Constant(name string, value *tensor.Tensor) *Instruction {
	return c.build(&Instruction{Op: OpConstant, Name: name, Attrs: &Attrs{Literal: value}})
}

// Zeros builds a zero-filled tensor of the given shape — the
// initialization value of decomposition accumulators. Unlike Constant it
// stores no literal, so model-scale shapes stay cheap to carry in the IR.
func (c *Computation) Zeros(name string, shape []int) *Instruction {
	return c.build(&Instruction{Op: OpZero, Name: name, Shape: append([]int(nil), shape...)})
}

// Einsum builds a two-operand Einstein summation with the given spec.
func (c *Computation) Einsum(spec string, lhs, rhs *Instruction) *Instruction {
	return c.build(&Instruction{Op: OpEinsum, EinsumSpec: spec, Operands: []*Instruction{lhs, rhs}})
}

// Add builds an element-wise addition.
func (c *Computation) Add(a, b *Instruction) *Instruction {
	return c.build(&Instruction{Op: OpAdd, Operands: []*Instruction{a, b}})
}

// Max builds an element-wise maximum.
func (c *Computation) Max(a, b *Instruction) *Instruction {
	return c.build(&Instruction{Op: OpMax, Operands: []*Instruction{a, b}})
}

// Copy builds an explicit buffer copy.
func (c *Computation) Copy(a *Instruction) *Instruction {
	return c.build(&Instruction{Op: OpCopy, Operands: []*Instruction{a}})
}

// Reshape reinterprets a's row-major data with a new shape.
func (c *Computation) Reshape(a *Instruction, shape ...int) *Instruction {
	return c.build(&Instruction{Op: OpReshape, Shape: append([]int(nil), shape...), Operands: []*Instruction{a}})
}

// Transpose permutes a's dimensions.
func (c *Computation) Transpose(a *Instruction, perm ...int) *Instruction {
	return c.build(&Instruction{Op: OpTranspose, Operands: []*Instruction{a}, Attrs: &Attrs{Perm: append([]int(nil), perm...)}})
}

// Concat concatenates the operands along axis.
func (c *Computation) Concat(axis int, ops ...*Instruction) *Instruction {
	return c.build(&Instruction{Op: OpConcat, Operands: append([]*Instruction(nil), ops...), Attrs: &Attrs{Axis: axis}})
}

// Pad pads a with value, low[i] elements before and high[i] after dim i.
func (c *Computation) Pad(a *Instruction, low, high []int, value float64) *Instruction {
	return c.build(&Instruction{
		Op: OpPad, Operands: []*Instruction{a},
		Attrs: &Attrs{PadLow: append([]int(nil), low...), PadHigh: append([]int(nil), high...), PadValue: value},
	})
}

// Slice extracts a[starts:limits].
func (c *Computation) Slice(a *Instruction, starts, limits []int) *Instruction {
	return c.build(&Instruction{
		Op: OpSlice, Operands: []*Instruction{a},
		Attrs: &Attrs{Starts: append([]int(nil), starts...), Limits: append([]int(nil), limits...)},
	})
}

// DynamicSlice extracts a slice of the given sizes at partition-dependent
// offsets.
func (c *Computation) DynamicSlice(a *Instruction, offsets []DynOffset, sizes []int) *Instruction {
	return c.build(&Instruction{
		Op: OpDynamicSlice, Operands: []*Instruction{a},
		Attrs: &Attrs{Offsets: append([]DynOffset(nil), offsets...), SliceSizes: append([]int(nil), sizes...)},
	})
}

// DynamicUpdateSlice overwrites the slice of base at partition-dependent
// offsets with update.
func (c *Computation) DynamicUpdateSlice(base, update *Instruction, offsets []DynOffset) *Instruction {
	return c.build(&Instruction{
		Op: OpDynamicUpdateSlice, Operands: []*Instruction{base, update},
		Attrs: &Attrs{Offsets: append([]DynOffset(nil), offsets...)},
	})
}

// AllGather concatenates shards along axis across each device group.
func (c *Computation) AllGather(a *Instruction, axis int, groups [][]int) *Instruction {
	return c.build(&Instruction{Op: OpAllGather, Operands: []*Instruction{a}, Attrs: &Attrs{CollectiveAxis: axis, Groups: copyGroups(groups)}})
}

// ReduceScatter sums across each device group and keeps the shard along
// axis owned by each device's position in its group.
func (c *Computation) ReduceScatter(a *Instruction, axis int, groups [][]int) *Instruction {
	return c.build(&Instruction{Op: OpReduceScatter, Operands: []*Instruction{a}, Attrs: &Attrs{CollectiveAxis: axis, Groups: copyGroups(groups)}})
}

// AllReduce sums across each device group.
func (c *Computation) AllReduce(a *Instruction, groups [][]int) *Instruction {
	return c.build(&Instruction{Op: OpAllReduce, Operands: []*Instruction{a}, Attrs: &Attrs{Groups: copyGroups(groups)}})
}

// AllToAll splits a along splitAxis, exchanges the pieces across each
// group, and concatenates the received pieces along concatAxis — the
// shard transpose that re-shards one dimension onto another.
func (c *Computation) AllToAll(a *Instruction, splitAxis, concatAxis int, groups [][]int) *Instruction {
	return c.build(&Instruction{Op: OpAllToAll, Operands: []*Instruction{a}, Attrs: &Attrs{CollectiveAxis: splitAxis, Axis: concatAxis, Groups: copyGroups(groups)}})
}

// CollectivePermute transfers a along explicit source→target pairs.
func (c *Computation) CollectivePermute(a *Instruction, pairs []SourceTargetPair) *Instruction {
	return c.build(&Instruction{Op: OpCollectivePermute, Operands: []*Instruction{a}, Attrs: &Attrs{Pairs: append([]SourceTargetPair(nil), pairs...)}})
}

// CollectivePermuteStart begins an asynchronous permute of a.
func (c *Computation) CollectivePermuteStart(a *Instruction, pairs []SourceTargetPair) *Instruction {
	return c.build(&Instruction{Op: OpCollectivePermuteStart, Operands: []*Instruction{a}, Attrs: &Attrs{Pairs: append([]SourceTargetPair(nil), pairs...)}})
}

// CollectivePermuteDone completes the asynchronous permute started by
// start, sharing start's attributes.
func (c *Computation) CollectivePermuteDone(start *Instruction) *Instruction {
	return c.build(&Instruction{Op: OpCollectivePermuteDone, Operands: []*Instruction{start}, Attrs: start.Attrs})
}

// Loop builds a counted loop: body's parameters receive the carried
// values (initialized from inits), its root Tuple provides the next
// iteration's values, and the loop yields carried buffer resultIndex
// after tripCount iterations. Loop-invariant inputs are carried
// unchanged (the tuple re-lists their parameter).
func (c *Computation) Loop(body *Computation, tripCount, resultIndex int, inits ...*Instruction) *Instruction {
	return c.build(&Instruction{
		Op:       OpLoop,
		Body:     body,
		Operands: append([]*Instruction(nil), inits...),
		Attrs:    &Attrs{TripCount: tripCount, ResultIndex: resultIndex},
	})
}

// Tuple groups values as the computation result; it pins every operand
// subgraph as live for dead-code elimination.
func (c *Computation) Tuple(ops ...*Instruction) *Instruction {
	return c.build(&Instruction{Op: OpTuple, Operands: append([]*Instruction(nil), ops...)})
}

// AddBuilt registers a pre-constructed instruction, inferring and
// validating its shape — the entry point for pass code that clones
// instructions into new computations (e.g. fusion bodies). A nil Attrs
// becomes the shared zero one; a non-nil one is taken as it is and,
// like every built instruction's, never written again, so a pass hands
// over the source's pointer rather than a copy.
func (c *Computation) AddBuilt(in *Instruction) *Instruction {
	return c.build(in)
}

// Fusion wraps body as a single fused instruction over the operands. The
// body's parameters must match the operands positionally.
func (c *Computation) Fusion(name string, body *Computation, ops ...*Instruction) *Instruction {
	return c.build(&Instruction{Op: OpFusion, Name: name, Body: body, Operands: append([]*Instruction(nil), ops...)})
}

func copyGroups(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// EditAttrs gives in a private deep copy of its attributes and lets
// edit change them: the one way to alter a built instruction's
// attributes, for tests that break a program on purpose. The copy is
// in's alone, so no clone, fusion body or async partner that shared
// the old Attrs sees the edit.
func EditAttrs(in *Instruction, edit func(a *Attrs)) {
	a := *in.Attrs
	if a.Literal != nil {
		a.Literal = a.Literal.Clone()
	}
	a.PadLow = slices.Clone(a.PadLow)
	a.PadHigh = slices.Clone(a.PadHigh)
	a.Starts = slices.Clone(a.Starts)
	a.Limits = slices.Clone(a.Limits)
	a.Offsets = slices.Clone(a.Offsets)
	a.SliceSizes = slices.Clone(a.SliceSizes)
	a.Perm = slices.Clone(a.Perm)
	a.Pairs = slices.Clone(a.Pairs)
	if a.Groups != nil {
		a.Groups = copyGroups(a.Groups)
	}
	edit(&a)
	in.Attrs = &a
}
