package runtime

import (
	"time"

	"overlap/internal/hlo"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// rvKey names one instance of a blocking collective: the instruction,
// which of its device groups is rendezvousing, and the per-device
// execution count of that instruction (its "generation" — a collective
// inside a loop body runs once per iteration, and fast devices may reach
// generation k+1 before slow ones have left generation k).
type rvKey struct {
	in    *hlo.Instruction
	group int32
	gen   int
}

// genState accumulates one generation of one collective group: every
// member deposits, by position, its input, the arena buffer its share
// of the result goes into, and itself. The last arriver injects the
// modeled wire delay, evaluates the same internal/collective kernel the
// lockstep interpreter uses into those buffers, and wakes the others.
// A finished state goes back to the engine's spare list: the states
// outlive the run with the rest of its context.
type genState struct {
	inputs, dsts []*tensor.Tensor
	members      []*device
	arrived      int
}

// rendezvous runs device d's side of a blocking collective: deposit
// the input and the destination, wait until the group has written the
// result. Inputs are read, and destinations written, only between the
// last arrival and the wake-up. It returns false when the run aborted
// while waiting.
func (e *engine) rendezvous(op *tapeOp, gen int, d *device, input, dst *tensor.Tensor) bool {
	group, pos := op.groups.group[d.id], op.groups.pos[d.id]
	members := int(op.groups.members[group])
	key := rvKey{in: op.in, group: group, gen: gen}
	if d.rv == nil {
		// Made on first use: a program without blocking collectives
		// never needs one. The lock below publishes it to the member
		// that will wake this device.
		d.rv = make(chan struct{}, 1)
	}
	e.mu.Lock()
	gs, ok := e.gens[key]
	if !ok {
		gs = e.newGen(members)
		e.gens[key] = gs
	}
	gs.inputs[pos], gs.dsts[pos], gs.members[pos] = input, dst, d
	gs.arrived++
	last := gs.arrived == members
	if last {
		// Every member holds the state itself by now; nobody looks this
		// generation up again.
		delete(e.gens, key)
	}
	e.mu.Unlock()

	if !last {
		// A device waits on one collective at a time, so its wake-up
		// channel holds at most this generation's token.
		select {
		case <-d.rv:
			return true
		case <-e.abort:
			return false
		}
	}
	// The whole group is blocked here, so the group's wire time is
	// serialized with its devices: one injected delay per instance, due
	// that long after the last arrival. The wait is abort-aware — on a
	// failed run the waiters are released by the abort channel, not by
	// their tokens.
	if wire := e.delay(op.modeled); wire > 0 {
		due := time.Now().Add(wire)
		if !d.pace.until(due, e.abort) {
			return false
		}
		d.overshoot += time.Since(due)
	}
	sim.CollectiveInto(op.in, gs.dsts, gs.inputs)
	for _, m := range gs.members {
		if m != d {
			m.rv <- struct{}{}
		}
	}
	e.mu.Lock()
	clear(gs.inputs)
	clear(gs.dsts)
	clear(gs.members)
	gs.arrived = 0
	e.spare = append(e.spare, gs)
	e.mu.Unlock()
	return true
}

// newGen draws a state for a generation of a members-device group from
// the spare list, or makes one. Called with e.mu held.
func (e *engine) newGen(members int) *genState {
	var gs *genState
	if n := len(e.spare); n > 0 {
		gs = e.spare[n-1]
		e.spare[n-1] = nil
		e.spare = e.spare[:n-1]
	} else {
		gs = &genState{}
	}
	if cap(gs.members) < members {
		table := make([]*tensor.Tensor, 2*members)
		gs.inputs, gs.dsts = table[:members:members], table[members:]
		gs.members = make([]*device, members)
	}
	gs.inputs, gs.dsts, gs.members = gs.inputs[:members], gs.dsts[:members], gs.members[:members]
	return gs
}
