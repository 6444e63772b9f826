package runtime

import (
	"overlap/internal/hlo"
	"overlap/internal/sim"
)

// The tape is the scheduled program lowered once per Executable into
// the form the device loop walks: one op per scheduled instruction, in
// order, with loop bodies inlined between a loop op and its back-edge
// and fusion bodies flattened into kernel steps. Every value is a dense
// slot index; operand slots, per-device permute peers, transfer sizes
// and mailbox numbers are resolved here, so executing an op looks
// nothing up. The tape is SPMD — shared by all devices, which differ
// only in the per-device columns of peer tables and in what their slots
// hold.
//
// The tape is program state: a function of the computation and the
// ring size, immutable once Compile returns and walked by any number of
// runs at once. Everything a run changes lives with the run — each
// device's slot table, owned bits, execution counts, arena accounting
// and cost row, the mailboxes, the timing pass's state — and the run's
// own options (TimeScale, Transport, Trace, Faults) never reach the
// tape. Time is not the tape's: the program's timing schedule
// (sim.Schedule) holds the modeled wire, and the timing pass scales it
// under the run's TimeScale. A local op is what sim.Local says, so the
// k-th cost a device records is the cost of the schedule's k-th local
// op.
//
// The buffer plan rides on the same ops. One liveness pass per
// computation (hlo.Computation.LastUses, the pass hlo.PeakMemory sweeps)
// marks the read at which each slot's value dies. What happens there
// depends on who owns the buffer, which the device tracks per slot:
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
	ops    []tapeOp
	nslots int

	// boxes lists the op index of every op whose result a device
	// receives through its mailbox — each CollectivePermuteStart (its
	// done takes the transfer) and each blocking collective; an op's
	// position here is its mailbox number on every device.
	boxes []int32

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

type opKind uint8

const (
	opParam      opKind = iota // run argument
	opCarried                  // loop-body parameter: the carried slot itself
	opConst                    // literal
	opLocal                    // device-local kernel steps
	opCollective               // blocking collective: rendezvous
	opStart                    // asynchronous permute: post
	opDone                     // asynchronous permute: receive
	opLoop                     // loop entry: bind the carried values
	opLoopEnd                  // loop back-edge; not an instruction of its own
)

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

type tapeOp struct {
	kind opKind
	in   *hlo.Instruction
	out  int32

	// carries marks a start something besides its done reads: its slot
	// then aliases the operand, like the interpreter's.
	carries bool

	// arg is the operand of a collective or a start.
	arg arg

	// groups is a blocking collective's rendezvous membership; box is
	// its mailbox number.
	groups *groupPlan

	steps []step

	// drop lists slots whose value dies at this op without a step
	// reading it last: results nobody reads, fusion operands the body
	// ignores.
	drop []int32

	// Starts, dones and blocking permutes. peer[d] is the device d sends
	// to (start) or receives from (done, blocking permute), -1 when d is
	// not in the pairs; box is the start's mailbox number, bytes the
	// payload size in the IR's 4-byte convention. On a done, sent is the
	// matching start's peer column: d posted a buffer iff sent[d] >= 0.
	peer  []int32
	sent  []int32
	box   int32
	bytes int64

	loop *loopPlan
}

// groupPlan resolves who a device meets at a blocking collective:
// group[d] is the rendezvous group device d joins, pos[d] its position
// in it, devs[g] group g's devices by position. A CollectivePermute
// synchronizes every device: one group, each device at its own id.
type groupPlan struct {
	group, pos []int32
	devs       [][]int
}

// loopPlan is shared by a loop's entry and back-edge ops.
type loopPlan struct {
	trips  int
	begin  int32 // first body op
	end    int32 // the opLoopEnd
	result int   // carried index the loop yields

	// init reads the loop's operands; a last read that is the operand's
	// only appearance moves the value in, any other operand is lent to
	// the body. carried[i] is the slot the body's parameter i names;
	// next[i] the slot of the body root's operand i, the value carried
	// into the following iteration.
	init    []arg
	carried []int32
	next    []int32
}

// lowering builds a tape.
type lowering struct {
	t *tape
	n int
	// pinned values are never released or taken over by the run: no read
	// of one is its last.
	pinned map[*hlo.Instruction]bool
}

// lower builds the tape of a validated computation for an n-device
// ring. Compile is its one caller.
func lower(c *hlo.Computation, n int) (*tape, error) {
	t := &tape{ops: make([]tapeOp, 0, tapeLen(c))}
	lw := &lowering{t: t, n: n, pinned: map[*hlo.Instruction]bool{}}
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

// tapeLen is the number of ops lowering c appends: one per
// instruction, and a loop's body and back-edge after its entry.
func tapeLen(c *hlo.Computation) int {
	n := c.NumInstructions()
	for i := 0; i < c.NumInstructions(); i++ {
		if in := c.At(i); in.Op == hlo.OpLoop {
			n += tapeLen(in.Body) + 1
		}
	}
	return n
}

func (lw *lowering) newSlot() int32 {
	lw.t.nslots++
	return int32(lw.t.nslots - 1)
}

// seq lowers one instruction sequence — the program, or a loop body
// whose parameter i is bound to carried[i] and whose root operands
// (held) are carried out rather than released — and returns each
// instruction's slot by schedule position.
func (lw *lowering) seq(c *hlo.Computation, carried []int32, held map[*hlo.Instruction]bool) ([]int32, error) {
	lastUse := c.LastUses()
	// pos is each instruction's schedule position, by ID: a verified
	// computation's operands are its own instructions.
	pos := make([]int32, c.IDBound())
	slots := make([]int32, c.NumInstructions())
	inLoop := carried != nil

	// read returns the arg for instruction i reading operand op.
	read := func(i int, op *hlo.Instruction) arg {
		p := pos[op.ID]
		return arg{slot: slots[p], last: lastUse[p] == i && !lw.pinned[op] && !held[op]}
	}

	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		pos[in.ID] = int32(i)
		op := tapeOp{in: in}
		if in.Op == hlo.OpParameter && inLoop {
			op.out = carried[in.ParamIndex]
		} else {
			op.out = lw.newSlot()
		}
		slots[i] = op.out

		switch {
		case sim.Local(in):
			// The k-th local op a device executes is the k-th of its cost
			// row, and of the schedule's.
			op.kind = opLocal
			if in.Op == hlo.OpFusion {
				if err := lw.fusion(&op, func(o *hlo.Instruction) arg { return read(i, o) }); err != nil {
					return nil, err
				}
				break
			}
			st := step{Step: sim.Step{In: in}, out: op.out}
			for _, o := range in.Operands {
				st.args = append(st.args, read(i, o))
			}
			op.steps = []step{st}
			lw.finishSteps(&op)

		case in.Op == hlo.OpParameter:
			op.kind = opParam
			if inLoop {
				op.kind = opCarried
			}
		case in.Op == hlo.OpConstant:
			op.kind = opConst

		case in.Op == hlo.OpCollectivePermuteStart:
			op.kind = opStart
			op.arg = read(i, in.Operands[0])
			op.box = lw.box()
			op.bytes = in.Operands[0].ByteSize()
			op.peer = lw.peers(in, true)
			op.carries = lw.pinned[in]

		case in.Op == hlo.OpCollectivePermuteDone:
			op.kind = opDone
			start := lw.t.ops[lw.startOp(slots[pos[in.Operands[0].ID]])]
			op.box = start.box
			op.bytes = in.ByteSize()
			op.peer = lw.peers(in, false)
			op.sent = start.peer

		case in.Op == hlo.OpLoop:
			// The loop appends its own ops: entry, body, back-edge.
			if err := lw.loop(op, lastUse[i] == i, func(o *hlo.Instruction) arg { return read(i, o) }); err != nil {
				return nil, err
			}
			continue

		default: // a blocking collective: the rest sim.Local leaves out
			op.kind = opCollective
			op.arg = read(i, in.Operands[0])
			op.groups = lw.groups(in)
			op.box = lw.box()
			if in.Op == hlo.OpCollectivePermute {
				op.peer = lw.peers(in, false)
			}
		}
		if lastUse[i] == i && !lw.pinned[in] && !held[in] && in.Op != hlo.OpCollectivePermuteStart {
			op.drop = append(op.drop, op.out)
		}
		lw.t.ops = append(lw.t.ops, op)
	}
	return slots, nil
}

// box numbers a mailbox for the op being lowered.
func (lw *lowering) box() int32 {
	lw.t.boxes = append(lw.t.boxes, int32(len(lw.t.ops)))
	return int32(len(lw.t.boxes) - 1)
}

// startOp finds the start op that owns a slot (a done's operand).
func (lw *lowering) startOp(slot int32) int32 {
	for _, idx := range lw.t.boxes {
		if op := &lw.t.ops[idx]; op.kind == opStart && op.out == slot {
			return idx
		}
	}
	panic(formatErr("done completes no lowered start")) // hlo.VerifyRing rules it out
}

// peers resolves a permute's pairs into a per-device column: whom each
// device sends to (asSource) or receives from.
func (lw *lowering) peers(in *hlo.Instruction, asSource bool) []int32 {
	out := make([]int32, lw.n)
	for d := range out {
		out[d] = -1
	}
	for _, p := range in.Pairs {
		if asSource {
			out[p.Source] = int32(p.Target)
		} else {
			out[p.Target] = int32(p.Source)
		}
	}
	return out
}

// groups resolves a blocking collective's rendezvous membership into
// per-device columns. hlo.VerifyRing has every device join exactly
// one group.
func (lw *lowering) groups(in *hlo.Instruction) *groupPlan {
	gp := &groupPlan{group: make([]int32, lw.n), pos: make([]int32, lw.n), devs: in.Groups}
	if in.Op == hlo.OpCollectivePermute {
		all := make([]int, lw.n)
		for d := range all {
			all[d] = d
		}
		gp.devs = [][]int{all}
	}
	for g, devs := range gp.devs {
		for i, d := range devs {
			gp.group[d], gp.pos[d] = int32(g), int32(i)
		}
	}
	return gp
}

// fusion flattens a fusion's body into the op's steps. The body's
// parameters are the fusion's operand slots themselves, so a dying
// operand is taken over by the step inside the body that reads it last.
func (lw *lowering) fusion(op *tapeOp, read func(*hlo.Instruction) arg) error {
	f := op.in
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

// loop lowers a counted loop: the entry op, the body inline, and the
// back-edge. unread reports that nothing reads the loop's result.
func (lw *lowering) loop(op tapeOp, unread bool, read func(*hlo.Instruction) arg) error {
	l := op.in
	root := l.Body.Root()
	lp := &loopPlan{trips: l.TripCount, result: l.ResultIndex}
	exit := tapeOp{kind: opLoopEnd, in: l, out: op.out, loop: lp}
	op.kind, op.loop = opLoop, lp

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
				exit.drop = append(exit.drop, a.slot)
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
		exit.drop = append(exit.drop, op.out)
	}

	lw.t.ops = append(lw.t.ops, op)
	lp.begin = int32(len(lw.t.ops))
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
	lp.end = int32(len(lw.t.ops))
	lw.t.ops = append(lw.t.ops, exit)
	return nil
}
