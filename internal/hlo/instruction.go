package hlo

import (
	"fmt"
	"math"
	"slices"

	"overlap/internal/tensor"
)

// DynOffset is a symbolic, partition- and iteration-dependent offset
// used by DynamicSlice and DynamicUpdateSlice. Its value on device pid
// at loop iteration iter is
//
//	((PIDFactor*(pid/Div) + IterFactor*iter + Add) mod Mod) * Scale
//
// with the division skipped when Div <= 1 and the modulo skipped when
// Mod == 0. The (pid/Div) mod Mod form extracts a device's coordinate
// along one axis of a row-major logical mesh, which is exactly the
// arithmetic the decomposition needs; IterFactor references the
// induction variable of an enclosing Loop (zero outside loops). Real
// XLA computes these offsets from PartitionId / induction-variable
// scalar ops; a closed-form expression keeps the IR small while
// preserving per-device behaviour.
type DynOffset struct {
	PIDFactor  int
	Div        int
	IterFactor int
	Add        int
	Mod        int
	Scale      int
}

// EvalIter returns the offset value for the given partition id and loop
// iteration (0 outside any loop).
func (o DynOffset) EvalIter(pid, iter int) int {
	p := pid
	if o.Div > 1 {
		p /= o.Div
	}
	v := o.PIDFactor*p + o.IterFactor*iter + o.Add
	if o.Mod != 0 {
		v %= o.Mod
		if v < 0 {
			v += o.Mod
		}
	}
	return v * o.Scale
}

// Static returns an offset that evaluates to the constant v on every
// device.
func Static(v int) DynOffset { return DynOffset{Add: v, Scale: 1} }

func (o DynOffset) String() string { return string(o.appendText(nil)) }

// SourceTargetPair names one point-to-point edge of a CollectivePermute.
type SourceTargetPair struct {
	Source int
	Target int
}

// Instruction is one node of the dataflow graph: the fields every
// opcode has, inline, and the opcode-specific attributes behind one
// embedded *Attrs, whose fields read as the instruction's own (in.Pairs,
// in.Groups). Exported attribute fields are only meaningful for the
// opcodes that use them; the verifier enforces consistency.
type Instruction struct {
	ID       int
	Name     string
	Op       OpCode
	Shape    []int
	Operands []*Instruction

	// Group tags instructions that belong to one fusion scope (e.g. one
	// iteration of a Looped CollectiveEinsum). The fusion pass only
	// grows a region within the anchor's group; 0 means untagged.
	Group int

	// users lists the instructions reading this one, in the order each
	// first became a user. Fan-out is a handful, so a slice scanned
	// linearly is both smaller and faster than a map, and Clone carves
	// every instruction's list out of one allocation.
	users []use

	// Parameter.
	ParamIndex int

	// Einsum. SplitK >= 2 is the kernel split-K factor this einsum
	// executes with (see tensor.EinsumSplitK); 0 keeps the reference
	// accumulation order. core.Apply stamps the planned factor here so
	// every executor of the text reassociates the contraction the same.
	EinsumSpec string
	SplitK     int
	// einsum is what EinsumSpec and the operand shapes determine (see
	// einsumFacts). Built instructions carry it; Clone shares it.
	einsum *einsumFacts

	// Fusion: the fused subgraph. Its parameters correspond 1:1 with the
	// fusion instruction's operands; the last instruction in the body is
	// the fusion result.
	// Loop: the loop body; parameters receive the carried buffers, the
	// root Tuple provides the next iteration's values.
	// Inline, not in Attrs: passes rewrite bodies in place, so each
	// instruction owns its own.
	Body *Computation

	// Attrs is never nil on a built instruction. It is shared, not
	// owned: see Attrs.
	*Attrs
}

// Attrs holds the opcode-specific attributes of an instruction. Most
// opcodes have none, and those instructions all point at one shared
// zero Attrs; an instruction with attributes gets its own from the
// builder or the parser that makes it.
//
// An Attrs is immutable once its instruction is built: nothing writes
// its fields, its slices' elements or its literal's data. That is what
// lets Clone, the fusion pass and MakeAsync hand the source's pointer
// to every copy instead of copying it. A change of attributes is a new
// instruction from a builder, and a test that breaks one on purpose
// takes a private copy first (EditAttrs).
type Attrs struct {
	// Constant.
	Literal *tensor.Tensor

	// Concat.
	Axis int

	// Pad.
	PadLow, PadHigh []int
	PadValue        float64

	// Slice.
	Starts, Limits []int

	// DynamicSlice / DynamicUpdateSlice.
	Offsets    []DynOffset
	SliceSizes []int

	// Transpose.
	Perm []int

	// Collectives: device groups participating (each group runs an
	// independent instance of the collective — a subgroup collective
	// along one mesh axis has one group per line of the mesh).
	Groups [][]int
	// AllGather concat dimension / ReduceScatter scatter dimension /
	// AllToAll split+concat dimension.
	CollectiveAxis int

	// CollectivePermute (and Start/Done).
	Pairs []SourceTargetPair

	// Loop: iteration count and which carried buffer the loop yields.
	TripCount   int
	ResultIndex int
}

// noAttrs is the Attrs of every instruction whose opcode has none.
var noAttrs Attrs

// use is one user edge: the reading instruction and how many of its
// operand slots name this one.
type use struct {
	user  *Instruction
	slots int
}

// Users returns the instructions that use this one as an operand, in
// the order each first became a user. The slice is the caller's.
func (in *Instruction) Users() []*Instruction {
	out := make([]*Instruction, len(in.users))
	for i, u := range in.users {
		out[i] = u.user
	}
	return out
}

// NumUsers returns the number of distinct user instructions.
func (in *Instruction) NumUsers() int { return len(in.users) }

// User returns the i-th user in Users' order, for loops that only read.
func (in *Instruction) User(i int) *Instruction { return in.users[i].user }

func (in *Instruction) userIndex(u *Instruction) int {
	for i := range in.users {
		if in.users[i].user == u {
			return i
		}
	}
	return -1
}

// ReplaceOperand swaps every occurrence of old in the operand list for
// new, updating user tracking on both sides.
func (in *Instruction) ReplaceOperand(old, new *Instruction) {
	for i, op := range in.Operands {
		if op == old {
			in.Operands[i] = new
			old.removeUser(in)
			new.addUser(in)
		}
	}
	if in.einsum != nil && !sameShape(old.Shape, new.Shape) {
		in.einsum = nil // priced for the old shapes; queries recompute
	}
}

func (in *Instruction) addUser(u *Instruction) {
	if i := in.userIndex(u); i >= 0 {
		in.users[i].slots++
		return
	}
	in.users = append(in.users, use{u, 1})
}

func (in *Instruction) removeUser(u *Instruction) {
	i := in.userIndex(u)
	if i < 0 {
		return
	}
	if in.users[i].slots > 1 {
		in.users[i].slots--
		return
	}
	copy(in.users[i:], in.users[i+1:])
	in.users[len(in.users)-1] = use{}
	in.users = in.users[:len(in.users)-1]
}

// NumElements returns the element count of the instruction's result.
func (in *Instruction) NumElements() int {
	n := 1
	for _, d := range in.Shape {
		n *= d
	}
	return n
}

// ByteSize returns the result size in bytes assuming 4-byte elements
// (the bf16-pair / f32 granularity the machine model uses), saturating
// at math.MaxInt64: parsed text may name a shape of any size.
func (in *Instruction) ByteSize() int64 {
	if slices.Contains(in.Shape, 0) {
		return 0
	}
	n := int64(4)
	for _, d := range in.Shape {
		if n > math.MaxInt64/int64(d) {
			return math.MaxInt64
		}
		n *= int64(d)
	}
	return n
}

func (in *Instruction) String() string {
	return fmt.Sprintf("%%%s = %s%v", in.Name, in.Op, in.Shape)
}
