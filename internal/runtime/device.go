package runtime

import (
	"sync/atomic"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// device is one SPMD participant: a goroutine walking the schedule's
// ops, and the tape's plan of each, against its own slots. All of its
// fields are goroutine-local while running, except the watchdog-facing
// status word; the engine reads everything else only after the device
// has joined.
type device struct {
	id  int
	eng *engine

	// vals holds each slot's current value; owned marks the slots whose
	// buffer this device drew from the free lists (or adopted off a
	// link) and alone refers to — the ones it may overwrite and must
	// hand back. See the tape's doc for the rule.
	vals  []*tensor.Tensor
	owned []bool

	// stash keeps the buffers the device handed back during the run,
	// and its kernels' scratch, for its own later draws; the engine
	// drains it into the free lists once every device has joined. How
	// many buffers a run takes from the shared lists then follows from
	// each device's program alone, not from how the devices' draws and
	// releases interleaved.
	stash tensor.Stash

	// args is the operand scratch of the step being evaluated; a loop's
	// back-edge lifts the carried values into it, their owned bits into
	// flags.
	args  []*tensor.Tensor
	flags []bool

	// iter is the induction variable of the enclosing loop (0 outside).
	// It is also the instance of a transfer and the generation of a
	// blocking collective: an op outside a loop runs once a run, one in
	// a loop once per trip (hlo.VerifyRing refuses nested loops), and
	// every device walks the same schedule, so the numbers agree across
	// devices.
	iter int

	// seq counts every instruction this device has executed, in program
	// order with loop bodies counted once per iteration — the index
	// crash faults address.
	seq int

	// cost is the device's row of the run's cost table: the seconds each
	// local op it executed took, in execution order — what the replay
	// times the run from. Nothing else the device does (the tape walk,
	// copies, hand-offs between goroutines, waits) is in it.
	cost []float64

	// arena and arenaPeak count the bytes (elements x 4, the IR's
	// convention) of free-list buffers this device holds in slots, plus
	// its posted transfers nobody has adopted yet.
	arena, arenaPeak int64

	// status publishes what the device was last doing, for the deadline
	// watchdog: the op index plus one in the high bits, the entry time
	// in microseconds since the epoch in the low statTimeBits. Zero is
	// idle. The phase and instruction name follow from the op.
	status atomic.Uint64
}

const statTimeBits = 40 // 12 days of microseconds

func newDevice(e *engine, id int) *device {
	t := e.tape
	return &device{
		id:    id,
		eng:   e,
		vals:  make([]*tensor.Tensor, t.nslots),
		owned: make([]bool, t.nslots),
		args:  make([]*tensor.Tensor, t.maxArgs),
		flags: make([]bool, t.maxArgs),
	}
}

// reset clears what a clean run left in the device — the outputs
// assemble moved out still sit in their slots — and empties its cost
// row.
func (d *device) reset() {
	clear(d.vals)
	clear(d.owned)
	clear(d.args)
	clear(d.flags)
	d.iter, d.seq = 0, 0
	d.cost = d.cost[:0]
	d.arena, d.arenaPeak = 0, 0
	d.status.Store(0)
}

// setStat publishes the op the device is entering and when; the
// watchdog uses it to attribute deadline aborts to the device blocked
// longest in the most communication-bound phase.
func (d *device) setStat(pc int, since float64) {
	d.status.Store(uint64(pc+1)<<statTimeBits | uint64(since*1e6)&(1<<statTimeBits-1))
}

// stat decodes the published status: the phase ("" when idle), the
// instruction, and the entry time in seconds.
func (d *device) stat() (Phase, string, float64) {
	w := d.status.Load()
	if w == 0 {
		return "", "", 0
	}
	op := &d.eng.sched.Ops[w>>statTimeBits-1]
	phase := PhaseCompute
	switch op.Kind {
	case sim.OpCollective, sim.OpPermute:
		phase = PhaseRendezvous
	case sim.OpStart:
		phase = PhasePost
	case sim.OpDone:
		phase = PhaseReceive
	}
	return phase, op.In.Name, float64(w&(1<<statTimeBits-1)) / 1e6
}

// poisonReleased makes release overwrite a buffer with NaN before it
// re-enters a free list, so a read after the planned last use, or a
// buffer recycled while still on a link, corrupts a checked result
// instead of passing unnoticed. Set only by tests.
var poisonReleased bool

// costOf, when set, is what the cost table records for a local op in
// place of its measured duration. Set only by tests, to replay a run
// under the machine model's costs.
var costOf func(in *hlo.Instruction) float64

// holdAtDone, when set, runs on a pair target's done before it takes
// its parcel. Set only by tests, to hold one device back in wall time
// so that the others run ahead of it: no wire ever does.
var holdAtDone func(dev int)

// acquire draws an owned buffer of the given shape, from the device's
// stash first; its contents are unspecified.
func (d *device) acquire(shape []int) *tensor.Tensor {
	t := d.stash.New(shape...)
	d.charge(t)
	return t
}

// charge counts a buffer the device now holds against its arena.
func (d *device) charge(t *tensor.Tensor) {
	d.arena += 4 * int64(t.NumElements())
	if d.arena > d.arenaPeak {
		d.arenaPeak = d.arena
	}
}

// release takes a buffer the device held out of its arena and keeps it
// in the device's stash.
func (d *device) release(t *tensor.Tensor) {
	d.arena -= 4 * int64(t.NumElements())
	if poisonReleased {
		tensor.Poison(t)
	}
	d.stash.Release(t)
}

// recycle returns a free-list buffer nothing refers to any more.
func recycle(t *tensor.Tensor) {
	if poisonReleased {
		tensor.Poison(t)
	}
	tensor.Release(t)
}

// free empties a slot, recycling its buffer if the device owns it.
func (d *device) free(slot int32) {
	if d.owned[slot] {
		d.release(d.vals[slot])
	}
	d.set(slot, nil, false)
}

// set stores a value in a slot.
func (d *device) set(slot int32, t *tensor.Tensor, owned bool) {
	d.vals[slot], d.owned[slot] = t, owned
}

// run walks the schedule. Any failure aborts the whole engine.
func (d *device) run() {
	d.walk()
	d.status.Store(0)
}

// walk executes the schedule's ops by their plans. It returns early
// when the run aborted — either this device failed or another one did.
func (d *device) walk() {
	e := d.eng
	ops, plan := e.sched.Ops, e.tape.ops
	for pc := 0; pc < len(ops); pc++ {
		op, p := &ops[pc], &plan[pc]
		if op.Kind == sim.OpLoopEnd {
			pc = d.loopEnd(op, p, pc)
			continue
		}
		if e.inj != nil {
			if f, ok := e.inj.crash(d.id, d.seq); ok {
				rtFaultInjections.Inc()
				rtFaultCrashes.Inc()
				e.fail(&RunError{
					Device: d.id, Instr: op.In.Name, Phase: PhaseCompute,
					Elapsed: e.sinceDur(), Fault: f.String(), Err: ErrInjectedCrash,
				})
				return
			}
		}
		d.seq++
		rtInstructions.Inc()
		switch op.Kind {
		case sim.OpParameter:
			// A loop body's parameter is already in its carried slot.
			if !p.carried {
				d.set(p.out, e.param(op.In.ParamIndex, d.id), false)
			}

		case sim.OpConstant:
			d.set(p.out, op.In.Literal, false)

		case sim.OpCollective, sim.OpPermute:
			d.setStat(pc, e.since())
			// The group writes this device's share into a buffer of its
			// own, and the device takes it back from its mailbox. On an
			// abort it is abandoned, not recycled: the member computing
			// the result may still be writing it.
			out, alive := d.rendezvous(op, p, d.vals[p.arg.slot], d.acquire(op.In.Shape))
			if !alive {
				return
			}
			// The group has computed its result, so nobody reads the
			// input any more.
			if p.arg.last {
				d.free(p.arg.slot)
			}
			d.set(p.out, out, true)

		case sim.OpStart:
			if !d.post(op, p, pc) {
				return
			}

		case sim.OpDone:
			if !d.receive(op, p, pc) {
				return
			}

		case sim.OpLoop:
			d.loopEnter(p)
			if op.Trips == 0 {
				pc = int(op.Jump)
				d.loopExit(&plan[pc])
			}

		case sim.OpLocal:
			t0 := time.Now()
			d.setStat(pc, t0.Sub(e.epoch).Seconds())
			for i := range p.steps {
				if err := d.eval(&p.steps[i]); err != nil {
					e.fail(&RunError{
						Device: d.id, Instr: op.In.Name, Phase: PhaseCompute,
						Elapsed: e.sinceDur(), Err: err,
					})
					return
				}
			}
			cost := time.Since(t0).Seconds()
			rtComputeSpans.Observe(cost)
			if costOf != nil {
				cost = costOf(op.In)
			}
			d.cost = append(d.cost, cost)
		}
		for _, s := range p.drop {
			d.free(s)
		}
	}
}

// eval runs one kernel step: gather the operands, settle where the
// result goes — into a dying operand's buffer when the kernel can
// overwrite one this device owns, else into a fresh arena buffer; a
// literal or a tuple placeholder has nothing to plan — evaluate through
// the dispatch shared with the interpreter (a tuple takes the run
// context's placeholder instead of a fresh one), and release what died.
func (d *device) eval(st *step) error {
	args := d.args[:len(st.args)]
	for k, a := range st.args {
		args[k] = d.vals[a.slot]
	}
	var dst *tensor.Tensor
	took := -1
	if st.In.Op != hlo.OpConstant && st.In.Op != hlo.OpTuple {
		for _, k := range st.take {
			if d.owned[st.args[k].slot] {
				dst, took = args[k], int(k)
				break
			}
		}
		if dst == nil {
			dst = d.acquire(st.In.Shape)
		}
	}
	v, err := d.eng.placeholder, error(nil)
	if st.In.Op != hlo.OpTuple {
		v, err = st.EvalInto(dst, &d.stash, args, d.id, d.iter)
	}
	if err != nil {
		if took < 0 && dst != nil {
			d.release(dst)
		}
		return err
	}
	for k, a := range st.args {
		if !a.last {
			continue
		}
		if k == took {
			d.set(a.slot, nil, false) // moved into the result
		} else {
			d.free(a.slot)
		}
	}
	d.set(st.out, v, dst != nil)
	clear(args)
	return nil
}

// post executes a start: if this device is a pair source, the operand
// goes onto the link without waiting for the wire. A buffer the device
// owns and is reading for the last time is handed over as is;
// otherwise the link gets a private copy, so the schedule may recycle
// or overwrite the operand the moment its own reads are done.
func (d *device) post(op *sim.Op, p *tapeOp, pc int) bool {
	e := d.eng
	src := d.vals[p.arg.slot]
	if p.carries {
		// Something besides the done reads the start: it carries its
		// operand, like the interpreter's (the plan never releases the
		// operand, so the alias is safe).
		d.set(p.out, src, false)
	}
	cm := &e.sched.Comms[op.Comm]
	link := e.sched.Links(op.Comm)[d.id]
	if link < 0 {
		if p.arg.last {
			d.free(p.arg.slot)
		}
		return true
	}
	d.setStat(pc, e.since())
	data := src
	if p.arg.last && d.owned[p.arg.slot] {
		d.set(p.arg.slot, nil, false) // the link owns it now; still charged until a done settles it
	} else {
		data = d.acquire(op.In.Operands[0].Shape)
		tensor.CopyInto(data, src)
		if p.arg.last {
			d.free(p.arg.slot)
		}
	}
	return e.fabric.post(int(link), mailKey{box: int(op.Comm), inst: d.iter}, data, cm.Bytes)
}

// receive executes a done: a pair target takes the delivery and adopts
// its buffer as the slot's value — no copy; any other device
// gets zeros, mirroring the permute kernel's zero fill.
func (d *device) receive(op *sim.Op, p *tapeOp, pc int) bool {
	s := d.eng.sched
	var out *tensor.Tensor
	if s.From(op.Comm)[d.id] >= 0 {
		d.setStat(pc, d.eng.since())
		if holdAtDone != nil {
			holdAtDone(d.id)
		}
		t, alive := d.take(mailKey{box: int(op.Comm), inst: d.iter})
		if !alive {
			return false
		}
		out = t
		d.charge(out)
	} else {
		out = tensor.Zero(d.acquire(op.In.Shape), op.In.Shape...)
	}
	if s.Links(op.Comm)[d.id] >= 0 {
		d.arena -= s.Comms[op.Comm].Bytes // the buffer this device posted has a new owner
	}
	d.set(p.out, out, true)
	return true
}

// take is how a device receives: it blocks until what key addresses —
// a transfer, or a blocking collective's result — is in the device's
// mailbox. It reports false when the run aborted.
func (d *device) take(key mailKey) (*tensor.Tensor, bool) {
	return d.eng.fabric.receive(d.id, key)
}

// loopEnter binds the carried slots to the loop's operands. An operand
// read here for the last time moves in, ownership and all; any other is
// lent: the body reads it, and its owner — a slot outside the loop,
// idle until the loop is over — keeps it.
func (d *device) loopEnter(p *tapeOp) {
	lp := p.loop
	for i, a := range lp.init {
		d.set(lp.carried[i], d.vals[a.slot], a.last && d.owned[a.slot])
		if a.last {
			d.set(a.slot, nil, false)
		}
	}
	d.iter = 0
}

// loopEnd is the back-edge: the body root's operands become the carried
// values of the next iteration, whatever the old ones still hold is
// released, and the walk resumes at the body's first op — or, after the
// last iteration, past the loop. It returns the pc to continue from.
func (d *device) loopEnd(op *sim.Op, p *tapeOp, pc int) int {
	lp := p.loop
	// Lift the next values out of their slots first: a carried slot may
	// be both a source (passed through, or rotated) and a destination.
	next, owned := d.args[:len(lp.next)], d.flags[:len(lp.next)]
	for i, s := range lp.next {
		next[i], owned[i] = d.vals[s], d.owned[s]
	}
	for i, s := range lp.next {
		// A value carried into two slots has two readers from here on:
		// nobody may overwrite or recycle it.
		for j, o := range lp.next {
			if o == s && j != i {
				owned[i] = false
			}
		}
	}
	for i, s := range lp.next {
		if !owned[i] && d.owned[s] {
			d.arena -= 4 * int64(d.vals[s].NumElements())
		}
		d.set(s, nil, false)
	}
	for i, c := range lp.carried {
		d.free(c) // not carried on: an operand the body never consumed
		d.set(c, next[i], owned[i])
	}
	clear(next)
	if d.iter+1 < int(op.Trips) {
		d.iter++
		return int(op.Jump) - 1
	}
	d.loopExit(p)
	return pc
}

// loopExit yields the loop's result and releases the other carried
// values and the operands that were only lent.
func (d *device) loopExit(p *tapeOp) {
	lp := p.loop
	res := lp.carried[lp.result]
	v, owned := d.vals[res], d.owned[res]
	d.set(res, nil, false)
	if !owned && v.Pooled() {
		// Lent by a slot that may release it after the loop: the result
		// needs a buffer that outlives its lender.
		c := d.acquire(v.Shape())
		v, owned = tensor.CopyInto(c, v), true
	}
	d.set(p.out, v, owned)
	for _, c := range lp.carried {
		d.free(c)
	}
	for _, s := range p.drop {
		d.free(s)
	}
	d.iter = 0
}
