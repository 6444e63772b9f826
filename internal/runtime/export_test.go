package runtime

import (
	goruntime "runtime"
	"sync/atomic"
	"time"

	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime/wire"
	"overlap/internal/sim"
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

// EditFrames rewrites every frame the process transport sends down to a
// worker with edit, and returns the function that turns it off again.
func EditFrames(edit func(*wire.Frame)) (restore func()) {
	editFrame = edit
	return func() { editFrame = nil }
}

// WatchWorkerExits calls exited with each process-transport worker's
// exit — nil for exit 0 — as a run's teardown reaps it, and returns the
// function that stops watching.
func WatchWorkerExits(exited func(dev int, err error)) (restore func()) {
	workerExited = exited
	return func() { workerExited = nil }
}

// TraceLayout is the span slab a traced run of x records into: for
// each device inside the trace window, one compute-track span per local
// op, blocking collective and done it executes, and one transfer span
// per transfer it posts. A MaxInFlight hold has no room in it. It is
// derived here, by walking the schedule's ops, not read back from the
// count the schedule keeps.
func (x *Executable) TraceLayout() int {
	window := min(x.n, obs.TraceMaxDevices)
	spans, trips := 0, 1
	for _, op := range x.sched.Ops {
		switch op.Kind {
		case sim.OpLoop:
			trips = int(op.Trips)
		case sim.OpLoopEnd:
			trips = 1
		case sim.OpLocal, sim.OpCollective, sim.OpPermute, sim.OpDone:
			spans += window * trips
		case sim.OpStart:
			for _, link := range x.sched.Links(op.Comm)[:window] {
				if link >= 0 {
					spans += trips
				}
			}
		}
	}
	return spans
}

// TimingSchedule is the timing schedule x times its runs by.
func (x *Executable) TimingSchedule() *sim.Schedule { return x.sched }

// LastPass is the cost table and the timing pass's state of x's last
// clean run, as the run context it handed back keeps them.
func (x *Executable) LastPass() ([][]float64, *sim.Clocks) {
	x.mu.Lock()
	defer x.mu.Unlock()
	e := x.idle[len(x.idle)-1]
	return e.costs, &e.clocks
}

// ModelCosts makes every device record the machine model's cost for
// each local op it executes, spec.InstructionCost, in place of the
// measured duration, and returns the function that turns it off again:
// a run then replays the way sim.Simulate prices the program.
func ModelCosts(spec machine.Spec) (restore func()) {
	costOf = spec.InstructionCost
	return func() { costOf = nil }
}

// ModeledCompute is the machine model's compute for one run of x, the
// figure Clock divides the measured compute by.
func (x *Executable) ModeledCompute() float64 { return x.modeledCompute() }

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
