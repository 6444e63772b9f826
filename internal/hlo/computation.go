package hlo

import (
	"container/heap"
	"fmt"

	"overlap/internal/tensor"
)

// Computation is an SPMD program: a dataflow graph of instructions kept
// in an executable sequence. Every device runs the same sequence;
// per-device divergence comes only from partition-dependent DynOffsets
// and from collective semantics.
//
// The instruction list is the schedule. All mutating helpers keep the
// list a valid topological order (operands before users) except where
// documented.
type Computation struct {
	Name   string
	instrs []*Instruction
	nextID int

	buildGroup int
	groupSeq   int

	// root is the computation's result. Outside a WithRootPreserved
	// section it follows the builder convention (the last instruction
	// added); inside one it is pinned, following only explicit
	// ReplaceAllUsesWith replacements — which is how rewriting passes
	// append helper instructions without a dead branch becoming the
	// root and surviving dead-code elimination in the result's place.
	root      *Instruction
	trackRoot *Instruction
	tracking  bool
}

// WithRootPreserved runs a graph mutation with the current root pinned:
// instructions appended inside f do not become the root, but if f
// replaces the root via ReplaceAllUsesWith the pin follows the
// replacement. Every rewriting pass wraps its mutation in this.
func (c *Computation) WithRootPreserved(f func()) {
	if c.tracking {
		// Nested call inside an active preserved section: the outer
		// section already pins and follows the root.
		f()
		return
	}
	c.tracking = true
	c.trackRoot = c.Root()
	f()
	c.tracking = false
	c.root = c.trackRoot
	c.trackRoot = nil
}

// SetRoot pins the computation's result explicitly.
func (c *Computation) SetRoot(in *Instruction) { c.root = in }

// NewBuildGroup allocates a fresh fusion-group id and makes it the
// current build group: instructions added until the next SetBuildGroup
// call carry it. Rewrites that emit loop iterations use one group per
// iteration so the fusion pass scopes regions to a single iteration.
func (c *Computation) NewBuildGroup() int {
	c.groupSeq++
	c.buildGroup = c.groupSeq
	return c.buildGroup
}

// SetBuildGroup sets the group stamped on subsequently added
// instructions; 0 restores the untagged default.
func (c *Computation) SetBuildGroup(g int) { c.buildGroup = g }

// NewComputation returns an empty computation.
func NewComputation(name string) *Computation {
	return &Computation{Name: name}
}

// Instructions returns the scheduled instruction sequence. The returned
// slice is a copy; the instructions themselves are shared.
func (c *Computation) Instructions() []*Instruction {
	return append([]*Instruction(nil), c.instrs...)
}

// NumInstructions returns the length of the sequence.
func (c *Computation) NumInstructions() int { return len(c.instrs) }

// At returns the i-th instruction of the sequence. Loops that only read
// index through it instead of paying for Instructions' snapshot; a loop
// that adds, removes or reorders instructions ranges over the snapshot.
func (c *Computation) At(i int) *Instruction { return c.instrs[i] }

// Walk calls f for every instruction of the computation and,
// recursively, of every fusion and loop body, in schedule order (each
// instruction immediately before its body's instructions). It is the
// traversal hook execution engines use to pre-plan resources — link
// channels, rendezvous state, arena sizing — before running.
func (c *Computation) Walk(f func(*Instruction)) {
	for _, in := range c.instrs {
		f(in)
		if in.Body != nil {
			in.Body.Walk(f)
		}
	}
}

// Root returns the computation's result: the explicitly tracked root,
// or the last instruction of the sequence under the builder convention.
func (c *Computation) Root() *Instruction {
	if c.tracking && c.trackRoot != nil {
		return c.trackRoot
	}
	if c.root != nil {
		return c.root
	}
	if len(c.instrs) == 0 {
		return nil
	}
	return c.instrs[len(c.instrs)-1]
}

// Parameters returns the parameter instructions ordered by ParamIndex.
func (c *Computation) Parameters() []*Instruction {
	var params []*Instruction
	for _, in := range c.instrs {
		if in.Op == OpParameter {
			params = append(params, in)
		}
	}
	for i := 0; i < len(params); i++ {
		for j := i + 1; j < len(params); j++ {
			if params[j].ParamIndex < params[i].ParamIndex {
				params[i], params[j] = params[j], params[i]
			}
		}
	}
	return params
}

// Find returns the first instruction with the given name, or nil.
func (c *Computation) Find(name string) *Instruction {
	for _, in := range c.instrs {
		if in.Name == name {
			return in
		}
	}
	return nil
}

// add registers a freshly built instruction at the end of the sequence,
// wiring user edges.
func (c *Computation) add(in *Instruction) *Instruction {
	in.ID = c.nextID
	c.nextID++
	if in.Group == 0 {
		in.Group = c.buildGroup
	}
	if in.Name == "" {
		in.Name = fmt.Sprintf("%s.%d", in.Op, in.ID)
	}
	for _, op := range in.Operands {
		op.addUser(in)
	}
	c.instrs = append(c.instrs, in)
	if !c.tracking {
		c.root = in
	}
	return in
}

// ReplaceAllUsesWith rewires every user of old to use new instead. The
// old instruction stays in the sequence (dead) until RemoveDeadCode.
func (c *Computation) ReplaceAllUsesWith(old, new *Instruction) {
	if old == new {
		return
	}
	for _, u := range old.Users() {
		u.ReplaceOperand(old, new)
	}
	if c.tracking && c.trackRoot == old {
		c.trackRoot = new
	}
	if c.root == old {
		c.root = new
	}
}

// RemoveDeadCode drops instructions with no users that are not the root
// and not parameters, iterating to a fixed point.
func (c *Computation) RemoveDeadCode() int {
	removed := 0
	for {
		root := c.Root()
		var live []*Instruction
		changed := false
		for _, in := range c.instrs {
			if in != root && in.Op != OpParameter && in.NumUsers() == 0 {
				for _, op := range in.Operands {
					op.removeUser(in)
				}
				removed++
				changed = true
				continue
			}
			live = append(live, in)
		}
		c.instrs = live
		if !changed {
			return removed
		}
	}
}

// SetSchedule replaces the instruction order. The new order must contain
// exactly the current instructions and be topologically valid.
func (c *Computation) SetSchedule(order []*Instruction) error {
	if len(order) != len(c.instrs) {
		return fmt.Errorf("hlo: schedule has %d instructions, computation has %d", len(order), len(c.instrs))
	}
	pos := make(map[*Instruction]int, len(order))
	for i, in := range order {
		if _, dup := pos[in]; dup {
			return fmt.Errorf("hlo: schedule lists %s twice", in.Name)
		}
		pos[in] = i
	}
	for _, in := range c.instrs {
		if _, ok := pos[in]; !ok {
			return fmt.Errorf("hlo: schedule is missing %s", in.Name)
		}
	}
	for i, in := range order {
		for _, op := range in.Operands {
			if pos[op] >= i {
				return fmt.Errorf("hlo: schedule places operand %s after user %s", op.Name, in.Name)
			}
		}
	}
	c.instrs = append(c.instrs[:0], order...)
	return nil
}

// stableTopoItem is a heap entry for ScheduleStableTopological.
type stableTopoItem struct {
	in   *Instruction
	prio int
}

type stableTopoHeap []stableTopoItem

func (h stableTopoHeap) Len() int            { return len(h) }
func (h stableTopoHeap) Less(i, j int) bool  { return h[i].prio < h[j].prio }
func (h stableTopoHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stableTopoHeap) Push(x interface{}) { *h = append(*h, x.(stableTopoItem)) }
func (h *stableTopoHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// ScheduleStableTopological re-sorts the sequence into a topological
// order that preserves the current relative order as far as dependencies
// allow (Kahn's algorithm with original position as priority). Rewriting
// passes call this after appending replacement instructions at the end.
func (c *Computation) ScheduleStableTopological() {
	origPos := make(map[*Instruction]int, len(c.instrs))
	for i, in := range c.instrs {
		origPos[in] = i
	}
	pending := make(map[*Instruction]int, len(c.instrs))
	h := &stableTopoHeap{}
	for _, in := range c.instrs {
		pending[in] = len(in.Operands)
		if len(in.Operands) == 0 {
			heap.Push(h, stableTopoItem{in, origPos[in]})
		}
	}
	var order []*Instruction
	for h.Len() > 0 {
		in := heap.Pop(h).(stableTopoItem).in
		order = append(order, in)
		for _, u := range in.Users() {
			// An instruction may use the same operand several times;
			// count each satisfied slot.
			slots := 0
			for _, op := range u.Operands {
				if op == in {
					slots++
				}
			}
			pending[u] -= slots
			if pending[u] == 0 {
				heap.Push(h, stableTopoItem{u, origPos[u]})
			}
		}
	}
	if len(order) != len(c.instrs) {
		panic("hlo: cycle detected in computation graph")
	}
	c.instrs = order
}

// Verify checks structural invariants: schedule validity, operand/user
// consistency, and per-op attribute/shape coherence.
func (c *Computation) Verify() error {
	seen := make(map[*Instruction]bool, len(c.instrs))
	for _, in := range c.instrs {
		for _, op := range in.Operands {
			if !seen[op] {
				return fmt.Errorf("hlo: %s uses %s before it is scheduled", in.Name, op.Name)
			}
			if !op.HasUser(in) {
				return fmt.Errorf("hlo: user edge %s -> %s missing", op.Name, in.Name)
			}
		}
		if err := verifyInstruction(in); err != nil {
			return err
		}
		if in.Op == OpFusion || in.Op == OpLoop {
			if err := in.Body.Verify(); err != nil {
				return fmt.Errorf("hlo: %s %s body: %w", in.Op, in.Name, err)
			}
		}
		seen[in] = true
	}
	return nil
}

func verifyInstruction(in *Instruction) error {
	if err := checkSplitK(in.Op, in.SplitK); err != nil {
		return fmt.Errorf("hlo: %s: %w", in.Name, err)
	}
	want, err := inferShape(in)
	if err != nil {
		return fmt.Errorf("hlo: %s: %w", in.Name, err)
	}
	if len(want) != len(in.Shape) {
		return fmt.Errorf("hlo: %s shape %v, inferred %v", in.Name, in.Shape, want)
	}
	for i := range want {
		if want[i] != in.Shape[i] {
			return fmt.Errorf("hlo: %s shape %v, inferred %v", in.Name, in.Shape, want)
		}
	}
	return nil
}

// checkSplitK bounds the einsum split-K attribute to the factors the
// kernel engine executes unclamped; other opcodes carry none.
func checkSplitK(op OpCode, k int) error {
	if k < 0 || k > tensor.MaxKernelSplitK {
		return fmt.Errorf("splitk %d out of range [0,%d]", k, tensor.MaxKernelSplitK)
	}
	if k != 0 && op != OpEinsum {
		return fmt.Errorf("splitk %d on %s (einsum only)", k, op)
	}
	return nil
}

// VerifySplitK returns the error Verify would report for a verified c
// with factor k stamped on every einsum, bodies included, without
// stamping it: the check is instruction-local, so a search can hold one
// unstamped program and still decide each factor's legality against it.
func (c *Computation) VerifySplitK(k int) error {
	for _, in := range c.instrs {
		if in.Op == OpEinsum {
			if err := checkSplitK(in.Op, k); err != nil {
				return fmt.Errorf("hlo: %s: %w", in.Name, err)
			}
		}
		if in.Body != nil {
			if err := in.Body.VerifySplitK(k); err != nil {
				return fmt.Errorf("hlo: %s %s body: %w", in.Op, in.Name, err)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the computation: new instruction objects,
// same structure and attributes, including fusion bodies. It is the
// unit of work of every search over the pipeline (one clone per
// memoised stage), so the copy is slab-allocated: the instructions, the
// operand lists and each kind of attribute slice come out of one
// allocation per kind, carved with their capacity capped so a later
// append reallocates instead of running into a neighbour, and each user
// map is sized from its source.
func (c *Computation) Clone() *Computation {
	out := NewComputation(c.Name)
	out.nextID = c.nextID
	out.groupSeq = c.groupSeq

	var nOperands, nInts, nOffsets, nPairs int
	for _, in := range c.instrs {
		nOperands += len(in.Operands)
		nInts += len(in.Shape) + len(in.PadLow) + len(in.PadHigh) + len(in.Starts) +
			len(in.Limits) + len(in.SliceSizes) + len(in.Perm)
		for _, g := range in.Groups {
			nInts += len(g)
		}
		nOffsets += len(in.Offsets)
		nPairs += len(in.Pairs)
	}
	instrs := make([]Instruction, len(c.instrs))
	operands := make([]*Instruction, nOperands)
	ints := make([]int, nInts)
	offsets := make([]DynOffset, nOffsets)
	pairs := make([]SourceTargetPair, nPairs)

	out.instrs = make([]*Instruction, len(c.instrs))
	mapping := make(map[*Instruction]*Instruction, len(c.instrs))
	for i, in := range c.instrs {
		cp := &instrs[i]
		*cp = Instruction{
			ID:             in.ID,
			Name:           in.Name,
			Op:             in.Op,
			Shape:          carve(&ints, in.Shape),
			Group:          in.Group,
			ParamIndex:     in.ParamIndex,
			EinsumSpec:     in.EinsumSpec,
			SplitK:         in.SplitK,
			Axis:           in.Axis,
			PadLow:         carve(&ints, in.PadLow),
			PadHigh:        carve(&ints, in.PadHigh),
			PadValue:       in.PadValue,
			Starts:         carve(&ints, in.Starts),
			Limits:         carve(&ints, in.Limits),
			Offsets:        carve(&offsets, in.Offsets),
			SliceSizes:     carve(&ints, in.SliceSizes),
			Perm:           carve(&ints, in.Perm),
			Pairs:          carve(&pairs, in.Pairs),
			CollectiveAxis: in.CollectiveAxis,
			TripCount:      in.TripCount,
			ResultIndex:    in.ResultIndex,
		}
		if len(in.users) > 0 {
			cp.users = make(map[*Instruction]int, len(in.users))
		}
		if in.Literal != nil {
			cp.Literal = in.Literal.Clone()
		}
		if len(in.Groups) > 0 {
			cp.Groups = make([][]int, len(in.Groups))
			for g, group := range in.Groups {
				cp.Groups[g] = carve(&ints, group)
			}
		}
		if in.Body != nil {
			cp.Body = in.Body.Clone()
		}
		cp.Operands = carve(&operands, in.Operands)
		for slot, op := range in.Operands {
			mop, ok := mapping[op]
			if !ok {
				panic(fmt.Sprintf("hlo: clone saw operand %s before definition", op.Name))
			}
			cp.Operands[slot] = mop
			mop.addUser(cp)
		}
		mapping[in] = cp
		out.instrs[i] = cp
	}
	if c.root != nil {
		out.root = mapping[c.root]
	}
	return out
}

// carve copies src into the front of *slab and returns the copy, its
// capacity capped at its length; an empty src yields nil.
func carve[T any](slab *[]T, src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	dst := (*slab)[:n:n]
	*slab = (*slab)[n:]
	copy(dst, src)
	return dst
}
