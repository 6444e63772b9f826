package hlo

import (
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

	// gen counts the mutations of the sequence and its dataflow edges:
	// every method that adds, rewires, removes or reorders instructions
	// bumps it. A compiled form of the computation records it, so a use
	// of that form can tell the computation changed since.
	gen uint64
}

// Generation is the computation's mutation count: it changes whenever an
// instruction is added, rewired by ReplaceAllUsesWith, removed by
// RemoveDeadCode or moved by a schedule, and at no other time. Two equal
// readings of one computation bracket no such change. It counts this
// computation's own sequence; a fusion or loop body is built whole and
// never edited in place.
func (c *Computation) Generation() uint64 { return c.gen }

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
	return c.appendParameters(nil)
}

// appendParameters appends the parameter instructions, ordered by
// ParamIndex, to params: a caller with a small stack array to fill
// gets them without allocating.
func (c *Computation) appendParameters(params []*Instruction) []*Instruction {
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
	c.gen++
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
	c.gen++
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
		live := c.instrs[:0] // filtered in place: writes trail the reads
		for _, in := range c.instrs {
			if in != root && in.Op != OpParameter && in.NumUsers() == 0 {
				for _, op := range in.Operands {
					op.removeUser(in)
				}
				removed++
				continue
			}
			live = append(live, in)
		}
		changed := len(live) != len(c.instrs)
		clear(c.instrs[len(live):])
		c.instrs = live
		if !changed {
			return removed
		}
		c.gen++
	}
}

// IDBound returns a bound on the computation's instruction IDs: every
// instruction's ID is unique within the computation, never reused, and
// below it — Clone preserves both the IDs and the bound. A pass that
// needs per-instruction scratch indexes a slice of this length by ID
// instead of building a pointer-keyed map.
func (c *Computation) IDBound() int { return c.nextID }

// byID returns the computation's instructions indexed by ID; the IDs of
// instructions since removed hold nil.
func (c *Computation) byID() []*Instruction {
	table := make([]*Instruction, c.nextID)
	for _, in := range c.instrs {
		table[in.ID] = in
	}
	return table
}

// member reports whether in is the instruction table (from byID) holds
// under its ID — that is, whether it belongs to the computation.
func member(table []*Instruction, in *Instruction) bool {
	return in.ID >= 0 && in.ID < len(table) && table[in.ID] == in
}

// SetSchedule replaces the instruction order. The new order must contain
// exactly the current instructions and be topologically valid.
func (c *Computation) SetSchedule(order []*Instruction) error {
	return c.setSchedule(c.byID(), order)
}

// setSchedule is SetSchedule given the computation's byID table.
func (c *Computation) setSchedule(table, order []*Instruction) error {
	if len(order) != len(c.instrs) {
		return fmt.Errorf("hlo: schedule has %d instructions, computation has %d", len(order), len(c.instrs))
	}
	// Membership is marked explicitly: an operand from outside the
	// computation must not read as "placed at position 0".
	placed := make([]bool, c.nextID)
	for _, in := range order {
		if !member(table, in) {
			return fmt.Errorf("hlo: schedule lists %s, which is not in the computation", in.Name)
		}
		for _, op := range in.Operands {
			if !member(table, op) {
				return fmt.Errorf("hlo: schedule lists %s, whose operand %s is not in the computation", in.Name, op.Name)
			}
			if !placed[op.ID] {
				return fmt.Errorf("hlo: schedule places operand %s after user %s", op.Name, in.Name)
			}
		}
		if placed[in.ID] {
			return fmt.Errorf("hlo: schedule lists %s twice", in.Name)
		}
		placed[in.ID] = true
	}
	// As many distinct members as the computation has: none is missing.
	copy(c.instrs, order)
	c.gen++
	return nil
}

// SetScheduleIDs is SetSchedule for an order given as instruction IDs.
// Clone keeps IDs, so an order taken from one copy of a program applies
// to any other.
func (c *Computation) SetScheduleIDs(ids []int) error {
	table := c.byID()
	order := make([]*Instruction, len(ids))
	for i, id := range ids {
		if id < 0 || id >= len(table) || table[id] == nil {
			return fmt.Errorf("hlo: schedule names instruction id %d, which is not in the computation", id)
		}
		order[i] = table[id]
	}
	return c.setSchedule(table, order)
}

// ScheduleStableTopological re-sorts the sequence into a topological
// order that preserves the current relative order as far as dependencies
// allow (Kahn's algorithm with original position as priority). Rewriting
// passes call this after appending replacement instructions at the end.
func (c *Computation) ScheduleStableTopological() {
	// pending[id] counts operand slots not yet satisfied; ready is a
	// min-heap of original positions.
	pending := make([]int, c.nextID)
	origPos := make([]int, c.nextID)
	var ready posHeap
	for i, in := range c.instrs {
		origPos[in.ID] = i
		pending[in.ID] = len(in.Operands)
		if len(in.Operands) == 0 {
			ready.push(i)
		}
	}
	old := c.instrs
	order := make([]*Instruction, 0, len(old))
	for len(ready) > 0 {
		in := old[ready.pop()]
		order = append(order, in)
		for _, u := range in.users {
			// An instruction may use the same operand several times;
			// every slot is satisfied at once.
			pending[u.user.ID] -= u.slots
			if pending[u.user.ID] == 0 {
				ready.push(origPos[u.user.ID])
			}
		}
	}
	if len(order) != len(old) {
		panic("hlo: cycle detected in computation graph")
	}
	c.instrs = order
	c.gen++
}

// posHeap is a binary min-heap of schedule positions.
type posHeap []int

func (h *posHeap) push(p int) {
	*h = append(*h, p)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *posHeap) pop() int {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		least := i
		for _, kid := range [2]int{2*i + 1, 2*i + 2} {
			if kid < last && s[kid] < s[least] {
				least = kid
			}
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

// Verify checks structural invariants: instruction identity (IDs unique
// and below IDBound), schedule validity, operand/user consistency in
// both directions, and per-op attribute/shape coherence.
func (c *Computation) Verify() error {
	seen := make([]*Instruction, c.nextID)
	for _, in := range c.instrs {
		if in.ID < 0 || in.ID >= c.nextID {
			return fmt.Errorf("hlo: %s has id %d outside [0,%d)", in.Name, in.ID, c.nextID)
		}
		if seen[in.ID] != nil {
			return fmt.Errorf("hlo: %s and %s share id %d", seen[in.ID].Name, in.Name, in.ID)
		}
		for slot, op := range in.Operands {
			if !member(seen, op) {
				return fmt.Errorf("hlo: %s uses %s before it is scheduled", in.Name, op.Name)
			}
			i := op.userIndex(in)
			if i < 0 {
				return fmt.Errorf("hlo: user edge %s -> %s missing", op.Name, in.Name)
			}
			if n := countSlots(in.Operands, op); slot == firstSlot(in.Operands, op) && op.users[i].slots != n {
				return fmt.Errorf("hlo: user edge %s -> %s counts %d slots, operands name it %d times",
					op.Name, in.Name, op.users[i].slots, n)
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
		seen[in.ID] = in
	}
	// Every operand edge has its user edge; no user edge may be left
	// over (a user outside the computation, or one that stopped reading).
	for _, in := range c.instrs {
		for _, u := range in.users {
			if !member(seen, u.user) || firstSlot(u.user.Operands, in) < 0 {
				return fmt.Errorf("hlo: %s lists user %s, which does not read it", in.Name, u.user.Name)
			}
		}
	}
	return nil
}

// firstSlot returns the first operand slot naming op, or -1.
func firstSlot(operands []*Instruction, op *Instruction) int {
	for i, o := range operands {
		if o == op {
			return i
		}
	}
	return -1
}

func countSlots(operands []*Instruction, op *Instruction) int {
	n := 0
	for _, o := range operands {
		if o == op {
			n++
		}
	}
	return n
}

func verifyInstruction(in *Instruction) error {
	if err := checkSplitK(in.Op, in.SplitK); err != nil {
		return fmt.Errorf("hlo: %s: %w", in.Name, err)
	}
	want, err := inferShape(in)
	if err != nil {
		return fmt.Errorf("hlo: %s: %w", in.Name, err)
	}
	if f := in.einsum; f != nil && in.Op == OpEinsum {
		// The carried facts must be the ones the operands' shapes give
		// now: a shape edited in place would otherwise be priced stale.
		flops, m, n, k, _ := f.spec.MatmulStats(in.Operands[0].Shape, in.Operands[1].Shape)
		if f.text != in.EinsumSpec || flops != f.flops || min(m, n, k) != f.minDim {
			return fmt.Errorf("hlo: %s carries einsum facts of a different spec or operand shapes", in.Name)
		}
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
// same structure, attributes, IDs and user order, including fusion
// bodies. It is the unit of work of every search over the pipeline (one
// clone per memoised stage), so the copy is slab-allocated: the
// instructions, the operand lists, the user lists and the shapes come
// out of one allocation per kind, carved with their capacity capped so
// a later append reallocates instead of running into a neighbour, and a
// source instruction finds its copy through a table indexed by ID
// rather than a pointer-keyed map.
//
// What no pass writes is shared, not copied: the einsum facts and the
// Attrs, which are immutable once built (see Attrs), so a copy costs
// the narrow inline fields and one pointer. Sharing the attribute
// slices was once measured at 2.7% of a cold compile's bytes and left
// out; that measurement kept every attribute header inline, and the
// width those headers gave each of the thousands of cloned
// instructions, not their contents, was where the bytes were.
func (c *Computation) Clone() *Computation {
	out := NewComputation(c.Name)
	out.nextID = c.nextID
	out.groupSeq = c.groupSeq

	var nOperands, nUses, nInts int
	for _, in := range c.instrs {
		nOperands += len(in.Operands)
		nUses += len(in.users)
		nInts += len(in.Shape)
	}
	instrs := make([]Instruction, len(c.instrs))
	operands := make([]*Instruction, nOperands)
	uses := make([]use, nUses)
	ints := make([]int, nInts)

	out.instrs = make([]*Instruction, len(c.instrs))
	// at[id] is one more than the schedule position of the source
	// instruction with that ID, which is also its copy's slab position.
	at := make([]int32, c.nextID)
	copyOf := func(src *Instruction) *Instruction {
		if src.ID >= 0 && src.ID < len(at) && at[src.ID] > 0 && c.instrs[at[src.ID]-1] == src {
			return &instrs[at[src.ID]-1]
		}
		return nil
	}
	for i, in := range c.instrs {
		cp := &instrs[i]
		*cp = Instruction{
			ID:         in.ID,
			Name:       in.Name,
			Op:         in.Op,
			Shape:      carve(&ints, in.Shape),
			Group:      in.Group,
			ParamIndex: in.ParamIndex,
			EinsumSpec: in.EinsumSpec,
			SplitK:     in.SplitK,
			einsum:     in.einsum,
			Attrs:      in.Attrs,
		}
		if in.Body != nil {
			cp.Body = in.Body.Clone()
		}
		cp.Operands = carve(&operands, in.Operands)
		for slot, op := range in.Operands {
			if cp.Operands[slot] = copyOf(op); cp.Operands[slot] == nil {
				panic(fmt.Sprintf("hlo: clone saw operand %s before definition", op.Name))
			}
		}
		at[in.ID] = int32(i + 1)
		out.instrs[i] = cp
	}
	// Users come after their operands, so the user lists are filled once
	// every copy exists.
	for i, in := range c.instrs {
		cp := &instrs[i]
		cp.users = carve(&uses, in.users)
		for j, u := range in.users {
			if cp.users[j].user = copyOf(u.user); cp.users[j].user == nil {
				panic(fmt.Sprintf("hlo: clone saw user %s of %s outside the computation", u.user.Name, in.Name))
			}
		}
	}
	if c.root != nil {
		out.root = copyOf(c.root)
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
