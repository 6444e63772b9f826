package runtime

import (
	"sync/atomic"

	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// genState accumulates one generation of one group of a blocking
// collective: every member deposits, by position, its input and the
// arena buffer its share of the result goes into, then counts itself
// in. The member that completes the group evaluates the same
// internal/collective kernel the lockstep interpreter uses into those
// buffers, hands each to its member's mailbox and resets the state.
//
// A group keeps two states, used by the parity of the generation (the
// device's loop iteration: inside a loop body the collective runs once
// per trip, and fast devices may reach generation k+1 before slow ones
// have taken generation k's result). Two are enough: a member
// deposits generation k+2 only after taking its k+1 result, which
// exists only once every member has deposited k+1 — among them the
// member that completed k, which reset k's state before depositing
// anything else. The states outlive the run with the rest of its
// context.
type genState struct {
	inputs, dsts []*tensor.Tensor
	arrived      atomic.Int32
}

// groupPlan resolves where each device meets a blocking collective:
// group[d] is the index in the schedule's Members of the group device d
// joins, pos[d] its position in it.
type groupPlan struct {
	group, pos []int32
}

// newGroupPlan lays out the positions of cm's members on an n-device
// ring. hlo.VerifyRing has every device join exactly one group.
func newGroupPlan(cm *sim.Comm, n int) *groupPlan {
	col := make([]int32, 2*n)
	gp := &groupPlan{group: col[:n:n], pos: col[n:]}
	for g, devs := range cm.Members {
		for i, d := range devs {
			gp.group[d], gp.pos[d] = int32(g), int32(i)
		}
	}
	return gp
}

// layoutGens lays out a run context's generation states from the
// schedule, by mailbox number like its mailboxes: for a blocking
// collective two per group, at 2*group + parity; nothing for a start.
func layoutGens(s *sim.Schedule) [][]genState {
	gens := make([][]genState, len(s.Comms))
	for b, cm := range s.Comms {
		if cm.Members == nil {
			continue
		}
		gens[b] = make([]genState, 2*len(cm.Members))
		for i := range gens[b] {
			members := len(cm.Members[i/2])
			table := make([]*tensor.Tensor, 2*members)
			gs := &gens[b][i]
			gs.inputs, gs.dsts = table[:members:members], table[members:]
		}
	}
	return gens
}

// rendezvous runs device d's side of a blocking collective: deposit the
// input and the destination, and take the result from the mailbox. The
// member that completes the group evaluates the kernel at once and
// delivers every member's buffer. Inputs are read, and destinations
// written, only between the last arrival and the delivery. It returns
// false when the run aborted while waiting.
func (d *device) rendezvous(op *sim.Op, p *tapeOp, input, dst *tensor.Tensor) (*tensor.Tensor, bool) {
	e := d.eng
	group, pos := p.groups.group[d.id], p.groups.pos[d.id]
	devs := e.sched.Comms[op.Comm].Members[group]
	key := mailKey{box: int(op.Comm), inst: d.iter}
	gs := &e.gens[op.Comm][2*int(group)+d.iter&1]
	gs.inputs[pos], gs.dsts[pos] = input, dst
	if int(gs.arrived.Add(1)) == len(devs) {
		sim.CollectiveInto(op.In, e.sched.From(op.Comm), gs.dsts, gs.inputs)
		for i, m := range devs {
			e.fabric.deliver(m, key, gs.dsts[i], "")
		}
		clear(gs.inputs)
		clear(gs.dsts)
		gs.arrived.Store(0)
	}
	return d.take(key)
}
