// Package runtime executes SPMD computations concurrently: each logical
// device is a goroutine walking the program's schedule (sim.Schedule)
// and its buffer plan, the tape (tape.go), over its own slots and arena
// buffers, a ring link is the destination device's mailbox, and the
// asynchronous CollectivePermuteStart/Done pair maps onto a genuinely
// non-blocking post + a take that waits only for the data. Where
// internal/sim *models* the overlap of communication with dependent
// computation, this package *performs* it: the schedule produced by
// internal/core decides how much of the in-flight transfers' wire hides
// behind partial einsums.
//
// Execution has two halves. Compile is the program's: validation, the
// one lowering into the schedule (sim.NewSchedule: the ops in program
// order, loops inlined, mailbox numbers, each permute's per-device peer
// and link, the fabric's edges), the tape that plans the schedule's
// buffers op for op, the mailbox tables — paid once, held in an
// Executable by whoever holds the plan (serve's plan cache, a training
// Program, the tuner's measured candidates). (*Executable).Run is the
// run's: argument and fault-plan checks, then a run context checked out
// of the Executable — engine, mailboxes, slot tables, collective
// generation states, the cost table and the replay's state — and, for a
// traced run, a span slab from the span free list. A clean run hands
// its context back, cleared, for the next run; a failed or aborted run
// drops it, so whatever the abort left half done dies with it. A
// released Result hands its tables — the All map and its slices — back
// to the context that filled them. Run and RunContext are the one-shot
// form, Compile then Run.
//
// Run state follows the schedule: what a run keeps per op, link or
// device is laid out by the schedule's positions, and nothing keeps
// count beside it. A transfer's instance and a blocking collective's
// generation are the device's loop iteration (an op outside a loop
// runs once a run, and hlo.VerifyRing refuses nested loops); a fault
// plan is compiled against the schedule's links, its state indexed by
// link and its crash points by device; a traced run's span slab is the
// schedule's span count, which a rare MaxInFlight hold grows past; and
// a frame coming up from a worker process is delivered only if the
// schedule can have sent it.
//
// Correctness is anchored to the lockstep interpreter: local
// instructions evaluate through the shared sim.EvalLocalInto dispatch
// (the interpreter into a buffer no live value names, this package into
// the buffer its plan assigned) and group collectives through the same
// internal/collective kernels, so for any program both executors
// accept, the results are bit-identical by construction — the runtime
// tests cross-validate this on every golden decomposition case, with
// released buffers poisoned so that a wrong plan cannot pass.
// CheckInterpreter runs the interpreter on this package's arena: it
// borrows from the free lists a run released into and hands back
// exactly what it borrowed once the outputs are compared.
//
// Timing is a replay. The devices keep no time: each records how long
// each local op it evaluated took (the run's cost table), and nothing
// else it does — the tape walk, copies, hand-offs between goroutines,
// waits for data — is in it. Once every device has joined, the run is
// timed by internal/sim's timing pass, the one sim.Simulate prices the
// program with: the pass walks the schedule the devices walked, in
// lockstep over the cost table, on one goroutine, and computes every
// device's clock, the Breakdown and every span. Devices and pass read
// the same ops by position, so the k-th cost a device records is the
// cost of the schedule's k-th local op. Because Go cannot put a
// tensor on a real ICI link, the wire is modeled: a transfer holds its
// (src,dst) link for the machine model's TransferTime scaled by
// Options.TimeScale, plus any delay fault, from its sender's clock or
// the end of the wire ahead of it on the link; a done moves its
// device's clock on to the transfer's arrival, and a blocking
// collective ends at the group's latest clock plus its wire. So device
// goroutines keep computing while transfers are "on the wire" — the
// resource structure (compute engine vs transfer engine) whose overlap
// the paper exploits — no goroutine ever sleeps on a wire, and a step is
// sim.Simulate's arithmetic with measured compute in place of the
// modeled: under the model's costs it is sim.Simulate's, span for span.
package runtime

import (
	"context"
	"fmt"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// Options configures a runtime execution. Spec belongs to the program
// half: Run and RunContext hand it to Compile, which prices the timing
// schedule's wire on it, and (*Executable).Run ignores it — an Executable
// keeps the spec it was compiled with. Every other field is the run's
// own and is read afresh by each Run.
type Options struct {
	// Spec supplies the wire-time model the timing pass prices
	// transfers and blocking collectives on. Its modeled seconds are only
	// consulted when TimeScale > 0.
	Spec machine.Spec

	// TimeScale is the one thing the replay reads that the program does
	// not fix: it converts modeled wire seconds into seconds of the
	// replayed step, the seconds the measured compute is in, so a
	// transfer occupies its link for Spec wire time times TimeScale.
	// Zero (or negative) replays no wire at all, which is the right
	// setting for correctness tests. The scale that puts a run on the
	// machine model's compute:wire ratio is measured, not picked:
	// (*Executable).Clock.
	TimeScale float64

	// Trace records the replay's per-device, per-instruction spans
	// (Result.Trace) for the first obs.TraceMaxDevices devices, the
	// simulator's window.
	Trace bool

	// Faults injects deterministic, seeded failures — link delays,
	// dropped or duplicated deliveries, device crashes — into the run.
	// Nil (or an empty plan) injects nothing. Every injected failure
	// surfaces as a structured *RunError, never a hang or wrong answer;
	// pair drop plans with RunContext so a stalled transfer is bounded
	// by a deadline. A delay only lengthens a wire in the replay.
	Faults *FaultPlan

	// RunID correlates this execution with the caller's run-scoped
	// telemetry: it is echoed in Result.RunID and stamped into any
	// *RunError the run fails with, so traces, structured logs, and
	// failures all share one key. Empty mints a fresh obs.NewRunID.
	RunID string

	// Transport selects the fabric implementation transfers move over:
	// TransportChan (the default, also the zero value) keeps every
	// device in process, delivering into its mailboxes at the post;
	// TransportProc spawns one
	// OS worker process per communicating device and moves tensors as
	// length-prefixed frames over Unix sockets. Results are
	// bit-identical across transports — only the movement layer
	// changes.
	Transport TransportKind
}

// Result is what one concurrent execution produced and measured.
type Result struct {
	// RunID is the execution's run identity (Options.RunID, or the
	// freshly minted one when the caller supplied none).
	RunID string

	// Values is the root instruction's value on each device: All's entry
	// for the root.
	Values []*tensor.Tensor

	// All holds the run's outputs per device: the root instruction and,
	// when the root is a tuple, each of its operands. Nothing else
	// survives the run — every other value's buffer went back to the
	// arena at its last use — so a program that wants an interior value
	// names it in its root tuple. The outputs were computed in arena
	// buffers and moved out to the caller, who owns them until Release:
	// until then each is an ordinary tensor, valid across later runs and
	// usable as a later run's argument. An output that is
	// itself an argument or a constant of the program stays whoever's it
	// was.
	All map[*hlo.Instruction][]*tensor.Tensor

	// ArenaPeakBytes is the largest number of bytes any one device held
	// in buffers from the arena at once — kernel and collective results,
	// the outputs, posted transfers not yet adopted — counted the IR's
	// way (elements x 4): the measured side of hlo.PeakMemory's
	// estimate, parameters and constants aside.
	ArenaPeakBytes int64

	// Breakdown is the replayed step decomposition, in seconds, by the
	// simulator's rules: StepTime is the latest final clock, Compute
	// averages the devices' measured local evaluation, Exposed their
	// waits for communication, and CollectiveWire the wire each device
	// sent — every transfer's, injected delays included, and every
	// blocking collective's. AsyncTransfers counts device 0's posts and
	// PeakInFlight the most transfers any device had in flight.
	Breakdown sim.Breakdown

	// Trace holds the replay's spans when Options.Trace was set, on the
	// same device tracks the simulator emits, in seconds of the replayed
	// step and in obs.SpanLess order. It is the run's span slab: a
	// holder done with it may hand it back with ReleaseTrace.
	Trace []obs.Span

	// tables holds All's map and slices and the output buffers that came
	// out of the arena (tables.owned): what Release hands back, the
	// buffers to the arena and the tables to the run context that filled
	// them.
	tables *resultTables
}

// Release returns the outputs the run computed to the arena's free
// lists, for a later run to reuse, and clears All and Values: no tensor
// obtained from them may be touched afterwards, and neither may the map
// or the slices themselves, which a later run of the same Executable
// refills. Outputs the run only passed through — an argument, a
// constant — are not the run's to recycle and stay intact. A caller
// that is done with a result calls it once; further calls do nothing,
// and never calling it merely leaves the buffers and tables to the
// garbage collector: an unreleased Result keeps nothing else of the run
// alive, neither its run context nor its Executable.
func (r *Result) Release() {
	if r.tables != nil {
		for _, t := range r.tables.owned {
			recycle(t)
		}
		r.tables.giveBack()
	}
	r.tables, r.All, r.Values = nil, nil, nil
}

// ReleaseArgs hands a finished run's arguments back to the arena's free
// lists, for a caller that drew them there itself (tensor.NewPooled)
// and is their only holder; ordinary tensors among them are left
// alone. An earlier result's outputs fed forward as
// arguments are that result's to release, never this function's.
func ReleaseArgs(args [][]*tensor.Tensor) {
	for _, set := range args {
		for _, t := range set {
			if t.Pooled() {
				recycle(t)
			}
		}
	}
}

// Run executes the computation on numDevices goroutine devices and
// returns the per-device results with their replayed breakdown. args follows
// sim.Interpret's convention: args[i][d] is parameter i's value on
// device d, and len(args[i]) == 1 supplies one replicated tensor.
func Run(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Result, error) {
	return RunContext(context.Background(), c, numDevices, args, opts)
}

// RunContext is Run with a deadline (see Executable.Run for what an
// expired context does to a run). It compiles the computation for this
// one run; a caller that runs a program repeatedly keeps the Executable
// instead. A failure's Elapsed counts from RunContext's entry, the
// compile included.
func RunContext(ctx context.Context, c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Result, error) {
	epoch := time.Now()
	x, err := Compile(c, numDevices, opts.Spec)
	if err != nil {
		return nil, err
	}
	return x.runFrom(ctx, args, opts, epoch)
}

func formatErr(format string, a ...interface{}) error {
	return fmt.Errorf("runtime: "+format, a...)
}
