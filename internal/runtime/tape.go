package runtime

import (
	"overlap/internal/hlo"
	"overlap/internal/sim"
)

// The tape is the buffer plan of the program's one lowering. Compile
// lowers a verified program once, into its schedule (sim.NewSchedule):
// one op per instruction in program order, loop bodies inlined between
// a loop op and its back-edge, with every mailbox number, loop jump and
// trip count, and each permute's per-device peer and link, resolved.
// The devices walk the schedule's ops by position, and the timing pass
// walks the same ops over the costs they record, so the k-th cost a
// device records is the cost of the schedule's k-th local op. The tape
// adds, op for op, only what a device needs to move buffers: slots,
// kernel steps (fusion bodies flattened), last reads, drops and
// loop-carried values. Every value is a dense slot index, so executing
// an op looks nothing up. Like the schedule it is SPMD — shared by all
// devices, which differ only in what their slots hold.
//
// The tape is program state: a function of the computation and its
// schedule, immutable once Compile returns and walked by any number of
// runs at once. Everything a run changes lives with the run — each
// device's slot table, owned bits, loop iteration, arena accounting
// and cost row, the mailboxes, the timing pass's state — and the run's
// own options (TimeScale, Transport, Trace, Faults) never reach the
// tape.
//
// The plan itself: one liveness pass per computation
// (hlo.Computation.LastUses, the pass hlo.PeakMemory sweeps) marks the
// read at which each slot's value dies. What happens there depends on
// who owns the buffer, which the device tracks per slot:
//
//   - An owned buffer came from the exact-size free lists — a kernel
//     result, a blocking collective's result (each member brings its
//     own destination to the rendezvous), an adopted transfer, a zero
//     fill — and exactly one slot (or one parcel on a link) refers to
//     it. At its last read it goes back to its free list, or the op
//     killing it takes it over: a DynamicUpdateSlice writes its window
//     in place, an Add or a fused EinsumAddInto accumulates in place
//     (across fusion boundaries: a fusion's operands are the body's
//     parameters' slots), a Copy or Reshape of it is a move.
//   - A borrowed buffer is read-only forever: run arguments and
//     constants, nothing else. An op that would overwrite a borrowed
//     operand gets a buffer of its own instead, exactly the
//     interpreter's semantics.
//
// What reaches Result — the root and, when it is a tuple, its operands
// — is planned like any other value and simply never released by the
// run: the engine moves the owned ones out of the arena into the
// Result, whose Release hands them back.
//
// Ownership is a property of the value, liveness of the schedule; the
// plan is the second, the device's owned bits the first.
type tape struct {
	// ops[i] is the plan of the schedule's op i.
	ops    []tapeOp
	nslots int

	// outputs are the instructions Result.All reports, with their
	// slots.
	outputs []output

	// maxArgs sizes each device's scratch: the most operands any step
	// reads, or values any loop carries.
	maxArgs int
}

type output struct {
	in   *hlo.Instruction
	slot int32
}

// arg is one read of a slot.
type arg struct {
	slot int32
	// last marks the final read of the slot's value: afterwards the
	// slot is empty, its buffer released if owned. Set on one read only
	// when an op reads the slot more than once.
	last bool
}

// step is one kernel evaluation: a local instruction, or one piece of
// a flattened fusion body.
type step struct {
	sim.Step
	args []arg
	out  int32
	// take lists the args this step may use as its destination: last
	// reads, read once by this step, at a position the kernel can
	// overwrite. The first one holding an owned buffer is taken over.
	take []int8
}

// tapeOp is the buffer plan of one schedule op.
type tapeOp struct {
	out int32

	// carried marks a loop body's parameter: its slot is the carried
	// value's own. carries marks a start something besides its done
	// reads: its slot then aliases the operand, like the interpreter's.
	carried, carries bool

	// arg is the operand of a collective or a start.
	arg arg

	// groups is a blocking collective's rendezvous positions.
	groups *groupPlan

	steps []step

	// drop lists slots whose value dies at this op without a step
	// reading it last: results nobody reads, fusion operands the body
	// ignores.
	drop []int32

	loop *loopPlan
}

// loopPlan is shared by a loop's entry and back-edge ops.
type loopPlan struct {
	result int // carried index the loop yields

	// init reads the loop's operands; a last read that is the operand's
	// only appearance moves the value in, any other operand is lent to
	// the body. carried[i] is the slot the body's parameter i names;
	// next[i] the slot of the body root's operand i, the value carried
	// into the following iteration.
	init    []arg
	carried []int32
	next    []int32
}

// lowering builds a tape over a schedule's ops, in their order.
type lowering struct {
	t *tape
	s *sim.Schedule
	n int
	// pc is the schedule op the lowering reaches next.
	pc int
	// pinned values are never released or taken over by the run: no read
	// of one is its last.
	pinned map[*hlo.Instruction]bool
}

// lower builds the tape of a verified computation over its schedule s
// for an n-device ring. Compile is its one caller.
func lower(c *hlo.Computation, s *sim.Schedule, n int) (*tape, error) {
	lw := &lowering{t: &tape{ops: make([]tapeOp, len(s.Ops))}, s: s, n: n, pinned: map[*hlo.Instruction]bool{}}
	var outputs []*hlo.Instruction
	if root := c.Root(); root != nil {
		outputs = append(outputs, root)
		if root.Op == hlo.OpTuple {
			outputs = append(outputs, root.Operands...)
		}
	}
	for _, in := range outputs {
		lw.pinned[in] = true
	}
	// A start whose value something other than its done reads aliases
	// its operand for that reader; keeping the operand for the whole run
	// makes the alias safe.
	c.Walk(func(in *hlo.Instruction) {
		if in.Op == hlo.OpCollectivePermuteStart && in.NumUsers() > 1 {
			lw.pinned[in] = true
			lw.pinned[in.Operands[0]] = true
		}
	})
	slots, err := lw.seq(c, nil, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		for _, o := range outputs {
			if o == in {
				lw.t.outputs = append(lw.t.outputs, output{in: in, slot: slots[i]})
				break
			}
		}
	}
	return lw.t, nil
}

func (lw *lowering) newSlot() int32 {
	lw.t.nslots++
	return int32(lw.t.nslots - 1)
}

// seq plans one instruction sequence — the program, or a loop body
// whose parameter i is bound to carried[i] and whose root operands
// (held) are carried out rather than released — over the schedule's
// next ops, one per instruction, and returns each instruction's slot by
// schedule position.
func (lw *lowering) seq(c *hlo.Computation, carried []int32, held map[*hlo.Instruction]bool) ([]int32, error) {
	lastUse := c.LastUses()
	// pos is each instruction's schedule position, by ID: a verified
	// computation's operands are its own instructions.
	pos := make([]int32, c.IDBound())
	slots := make([]int32, c.NumInstructions())

	// read returns the arg for instruction i reading operand op.
	read := func(i int, op *hlo.Instruction) arg {
		p := pos[op.ID]
		return arg{slot: slots[p], last: lastUse[p] == i && !lw.pinned[op] && !held[op]}
	}

	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		pos[in.ID] = int32(i)
		at := lw.pc
		lw.pc++
		kind, p := lw.s.Ops[at].Kind, &lw.t.ops[at]
		if kind == sim.OpParameter && carried != nil {
			p.out, p.carried = carried[in.ParamIndex], true
		} else {
			p.out = lw.newSlot()
		}
		slots[i] = p.out

		switch kind {
		case sim.OpLocal:
			if in.Op == hlo.OpFusion {
				if err := lw.fusion(p, in, func(o *hlo.Instruction) arg { return read(i, o) }); err != nil {
					return nil, err
				}
				break
			}
			st := step{Step: sim.Step{In: in}, out: p.out}
			for _, o := range in.Operands {
				st.args = append(st.args, read(i, o))
			}
			p.steps = []step{st}
			lw.finishSteps(p)

		case sim.OpStart:
			p.arg = read(i, in.Operands[0])
			p.carries = lw.pinned[in]

		case sim.OpCollective, sim.OpPermute:
			p.arg = read(i, in.Operands[0])
			p.groups = newGroupPlan(&lw.s.Comms[lw.s.Ops[at].Comm], lw.n)

		case sim.OpLoop:
			// The loop plans its own ops: entry, body, back-edge.
			if err := lw.loop(at, lastUse[i] == i, func(o *hlo.Instruction) arg { return read(i, o) }); err != nil {
				return nil, err
			}
			continue
		}
		if lastUse[i] == i && !lw.pinned[in] && !held[in] && kind != sim.OpStart {
			p.drop = append(p.drop, p.out)
		}
	}
	return slots, nil
}

// fusion flattens a fusion's body into the op's steps. The body's
// parameters are the fusion's operand slots themselves, so a dying
// operand is taken over by the step inside the body that reads it last.
func (lw *lowering) fusion(op *tapeOp, f *hlo.Instruction, read func(*hlo.Instruction) arg) error {
	steps, result, err := sim.FusionSteps(f)
	if err != nil {
		return err
	}
	if result < len(f.Operands) {
		return formatErr("fusion %s yields its operand %d unchanged", f.Name, result)
	}
	outer := make([]arg, len(f.Operands))
	for k, o := range f.Operands {
		outer[k] = read(o)
	}
	base := len(f.Operands)
	inner := make([]int32, len(steps))
	for j := range steps {
		if base+j == result {
			inner[j] = op.out
		} else {
			inner[j] = lw.newSlot()
		}
	}
	op.steps = make([]step, len(steps))
	for j, s := range steps {
		st := step{Step: s, out: inner[j]}
		for _, v := range s.Args {
			if v < base {
				st.args = append(st.args, outer[v])
			} else {
				// An interior value dies with the fusion unless it is
				// the result.
				st.args = append(st.args, arg{slot: inner[v-base], last: v != result})
			}
		}
		op.steps[j] = st
	}
	// Operands the body never reads, and interior values nothing reads,
	// still die here.
	isRead := map[int32]bool{}
	for _, st := range op.steps {
		for _, a := range st.args {
			isRead[a.slot] = true
		}
	}
	for _, a := range outer {
		if a.last && !isRead[a.slot] {
			op.drop = append(op.drop, a.slot)
			isRead[a.slot] = true // an operand named twice drops once
		}
	}
	for j, s := range inner {
		if base+j != result && !isRead[s] {
			op.drop = append(op.drop, s)
		}
	}
	lw.finishSteps(op)
	return nil
}

// finishSteps settles, across an op's steps, which read of each dying
// slot is the last one, and which of those a kernel may overwrite.
func (lw *lowering) finishSteps(op *tapeOp) {
	final := map[int32]int{} // dying slot -> the last step reading it
	for j := range op.steps {
		for k, a := range op.steps[j].args {
			if a.last {
				final[a.slot] = j
				op.steps[j].args[k].last = false
			}
		}
	}
	for j := range op.steps {
		st := &op.steps[j]
		reads := map[int32]int{}
		for k, a := range st.args {
			if f, dying := final[a.slot]; dying && f == j && reads[a.slot] == 0 {
				st.args[k].last = true
			}
			reads[a.slot]++
		}
		for _, k := range st.Overwrites() {
			if a := st.args[k]; a.last && reads[a.slot] == 1 {
				st.take = append(st.take, int8(k))
			}
		}
		if len(st.args) > lw.t.maxArgs {
			lw.t.maxArgs = len(st.args)
		}
	}
}

// loop plans a counted loop, whose entry is the schedule's op at: the
// entry, the body inline, and the back-edge. unread reports that
// nothing reads the loop's result.
func (lw *lowering) loop(at int, unread bool, read func(*hlo.Instruction) arg) error {
	entry, l := &lw.t.ops[at], lw.s.Ops[at].In
	root := l.Body.Root()
	lp := &loopPlan{result: l.ResultIndex}
	entry.loop = lp

	var drop []int32
	named := map[int32]int{}
	for _, o := range l.Operands {
		named[read(o).slot]++
	}
	for _, o := range l.Operands {
		a := read(o)
		if a.last && named[a.slot] != 1 {
			// Named twice: lent to the body each time, released once
			// the loop is over.
			a.last = false
			if named[a.slot] > 0 {
				drop = append(drop, a.slot)
				named[a.slot] = -1
			}
		}
		lp.init = append(lp.init, a)
		lp.carried = append(lp.carried, lw.newSlot())
	}
	if len(lp.carried) > lw.t.maxArgs {
		lw.t.maxArgs = len(lp.carried)
	}
	if unread && !lw.pinned[l] {
		drop = append(drop, entry.out)
	}

	held := make(map[*hlo.Instruction]bool, len(root.Operands))
	for _, o := range root.Operands {
		held[o] = true
	}
	slots, err := lw.seq(l.Body, lp.carried, held)
	if err != nil {
		return err
	}
	lp.next = make([]int32, len(root.Operands))
	for k, in := range l.Body.Instructions() {
		for r, o := range root.Operands {
			if o == in {
				lp.next[r] = slots[k]
			}
		}
	}
	lw.t.ops[lw.pc] = tapeOp{out: entry.out, loop: lp, drop: drop}
	lw.pc++
	return nil
}
