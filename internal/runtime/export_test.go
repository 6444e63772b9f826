package runtime

import (
	goruntime "runtime"
	"sync/atomic"
	"time"

	"overlap/internal/machine"
	"overlap/internal/obs"
)

// PoisonReleased turns the use-after-release canary on for the calling
// test and returns the function that turns it off again: while on,
// every buffer going back to a free list is overwritten with NaN.
func PoisonReleased() (restore func()) {
	poisonReleased = true
	return func() { poisonReleased = false }
}

// HoldBack makes device dev wait for hold of wall time at each done
// before it takes its parcel, so that the other devices run ahead of
// it — through a generation of a blocking collective and into the
// next — and returns the function that turns the hold off again. A
// delay fault cannot do this: it lengthens a wire in the replay, and no
// device waits for it.
func HoldBack(dev int, hold time.Duration) (restore func()) {
	holdAtDone = func(id int) {
		if id == dev {
			time.Sleep(hold)
		}
	}
	return func() { holdAtDone = nil }
}

// TraceLayout is the span slab a traced run of x records into: for
// each device inside the trace window, one compute-track span per local
// op, blocking collective and done it executes, and one transfer span
// per transfer it posts on each of its outgoing edges. It is derived
// here, from the tape and the edge table, not read back from the
// Executable.
func (x *Executable) TraceLayout() int {
	window := min(x.n, obs.TraceMaxDevices)
	spans, trips := 0, 1
	for i := range x.tape.ops {
		switch op := &x.tape.ops[i]; op.kind {
		case opLoop:
			trips = op.loop.trips
		case opLoopEnd:
			trips = 1
		case opLocal, opCollective, opDone:
			spans += window * trips
		}
	}
	for _, e := range x.edges {
		if e.src < window {
			spans += e.transfers
		}
	}
	return spans
}

// ModelCosts makes every device record the machine model's cost for
// each local op it executes, spec.InstructionCost, in place of the
// measured duration, and returns the function that turns it off again:
// a run then replays the way sim.Simulate prices the program.
func ModelCosts(spec machine.Spec) (restore func()) {
	costOf = spec.InstructionCost
	return func() { costOf = nil }
}

// IdleRunContexts reports how many run contexts the Executable holds
// for later runs.
func (x *Executable) IdleRunContexts() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.idle)
}

// OnTapeCollected sets collected once the Executable's tape is garbage.
// The finalizer sits on the tape because the Executable itself is on a
// reference cycle with its run contexts, and the collector runs no
// finalizer on a cycle; nothing but the Executable and its contexts
// reaches the tape.
func (x *Executable) OnTapeCollected(collected *atomic.Bool) {
	goruntime.SetFinalizer(x.tape, func(*tape) { collected.Store(true) })
}
