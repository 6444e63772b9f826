package runtime

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// Executable is a computation compiled for an n-device ring: validated,
// lowered once into its schedule, which its devices walk and which times
// its runs, and planned into its tape, the schedule's buffer plan.
// Everything in it is a function of the program, the ring size and the
// machine spec, computed once by Compile and never written again, so
// one Executable serves any number of runs, sequential or concurrent,
// each with its own arguments and Options.
// The one thing it keeps besides is a stack of idle run contexts —
// engines whose tables a clean run handed back — which each Run checks
// one out of, so a warm run builds no tables.
// The computation must not be modified while an Executable of it is in
// use: kernels read their instructions' attributes as they execute.
// Compile records the computation's hlo generation, and a Run after the
// computation changed fails with ErrModified instead of executing a
// schedule lowered from the program as it was.
type Executable struct {
	comp *hlo.Computation
	gen  uint64
	n    int
	tape *tape

	// spec is the machine spec the schedule was priced on and specErr
	// what it fails validation with, nil for a sound one. Only a run that injects
	// wire time (TimeScale > 0) and Clock read the modeled seconds, so
	// only they fail on it: TimeScale-0 callers compile with the zero
	// Spec.
	spec    machine.Spec
	specErr error

	// sched is the program's one lowering: the ops every device walks
	// and every run is timed by, its mailbox numbers, the directed links
	// the starts' pairs use (the fabric's edges), the local ops a device
	// executes (the length of its cost row) and the most spans a traced
	// run records (the size of its span slab). boxes maps a start
	// instruction's name to its mailbox number, for transports that
	// cross a process boundary, where instruction pointers cannot
	// travel.
	sched *sim.Schedule
	boxes map[string]int

	// idle holds the run contexts clean runs handed back; mu guards it.
	// It holds at most as many as there were runs at once.
	mu   sync.Mutex
	idle []*engine
}

// Compile checks that the computation can execute on a numDevices ring
// (hlo.VerifyRing: every blocking collective joinable by all of its
// devices, every posted transfer with exactly one reader — what keeps a
// device goroutine from waiting forever), lowers it once into its
// schedule (sim.NewSchedule) and plans the schedule's buffers. spec prices
// the wire time runs inject and the compute Clock compares against; a
// caller that needs neither (TimeScale 0, no Clock) may pass the zero
// Spec.
func Compile(c *hlo.Computation, numDevices int, spec machine.Spec) (*Executable, error) {
	if err := c.VerifyRing(numDevices); err != nil {
		return nil, err
	}
	s := sim.NewSchedule(c, numDevices, spec)
	t, err := lower(c, s, numDevices)
	if err != nil {
		return nil, err
	}
	x := &Executable{
		comp:    c,
		gen:     c.Generation(),
		n:       numDevices,
		tape:    t,
		spec:    spec,
		specErr: spec.Validate(),
		sched:   s,
		boxes:   make(map[string]int, len(s.Comms)),
	}
	for box, cm := range s.Comms {
		if op := &s.Ops[cm.At]; op.Kind == sim.OpStart {
			x.boxes[op.In.Name] = box
		}
	}
	return x, nil
}

// ErrModified is what Run fails with when the Executable's computation
// was transformed after Compile: its schedule describes a program that
// no longer exists.
var ErrModified = errors.New("computation modified since Compile")

// Run executes the compiled program once: args follows sim.Interpret's
// convention (args[i][d] is parameter i's value on device d, and
// len(args[i]) == 1 supplies one replicated tensor), opts is the run's
// own — see Options for which fields a run reads. When ctx expires or
// is cancelled the run aborts — every blocked device, link and
// rendezvous wakes — and the error is a *RunError attributing the stall
// to a device, instruction and phase (and, under fault injection, to
// the fault that caused it), with the context error available via
// errors.Is. A run executes in a run context checked out of x; a clean
// run hands it back cleared of every tensor, span and argument it
// touched, and a failed or aborted run drops it, so an aborted run
// leaves nothing behind in the Executable: the next Run starts clean.
// A computation transformed since Compile fails the run with an error
// wrapping ErrModified before anything executes.
//
// A failure's Elapsed counts from Run's entry, as the caller's deadline
// does.
func (x *Executable) Run(ctx context.Context, args [][]*tensor.Tensor, opts Options) (*Result, error) {
	return x.runFrom(ctx, args, opts, time.Now())
}

// runFrom is Run with the instant a failure's Elapsed counts from.
func (x *Executable) runFrom(ctx context.Context, args [][]*tensor.Tensor, opts Options, epoch time.Time) (*Result, error) {
	if err := x.validateRun(args, opts); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(x.n); err != nil {
		return nil, err
	}
	if opts.RunID == "" {
		opts.RunID = obs.NewRunID()
	}
	eng, err := x.checkout(opts)
	if err != nil {
		return nil, err
	}
	res, err := eng.run(ctx, args, epoch)
	if err != nil {
		return nil, err
	}
	x.checkin(eng)
	return res, nil
}

// clockRuns is how many wire-free runs Clock measures. It keeps the
// lowest compute, so the first run's thread and allocator spin-up is not
// charged to the clock.
const clockRuns = 2

// Clock derives the wire scale at which runs of x hold the machine
// model's compute:wire ratio on this host. It runs x with no wire and
// divides the lowest measured Breakdown.Compute by the modeled compute
// — sim.Simulate's, from the timing pass over the schedule x already
// holds, priced on the spec x was compiled with; wire injected at that
// TimeScale stands to measured compute as the model's wire stands to its
// compute. The ratio depends on the program (a small CPU einsum is
// memory-bound where the model's is not), so a caller measures it on the
// untransformed program whose schedules it compares, and runs every
// schedule at it. Clock is 1 when either compute is 0, and fails with
// the spec's validation error when x was compiled without a sound spec.
func (x *Executable) Clock(ctx context.Context, args [][]*tensor.Tensor) (float64, error) {
	if x.specErr != nil {
		return 0, x.specErr
	}
	modeled := x.modeledCompute()
	measured := math.Inf(1)
	for i := 0; i < clockRuns; i++ {
		res, err := x.Run(ctx, args, Options{})
		if err != nil {
			return 0, err
		}
		measured = min(measured, res.Breakdown.Compute)
		res.Release()
	}
	if measured == 0 || modeled == 0 {
		return 1, nil
	}
	return measured / modeled, nil
}

// modeledCompute is the machine model's compute for one run of x: the
// timing pass over its schedule's row of model costs, what sim.Simulate
// reads.
func (x *Executable) modeledCompute() float64 {
	b, _ := x.sched.Model(nil)
	return b.Compute
}

// CheckInterpreter is the bitwise contract as a call: it executes c on
// the lockstep interpreter with the arguments res was run on and
// compares every output — the root, or each operand of a tuple root —
// on every device. An output res does not hold, or holds for a number
// of devices other than numDevices, fails the check as a divergence
// does. Whoever offers a -check (the CLI, the daemon, the training
// loop, the tuner's measured candidates) calls it before releasing res.
func CheckInterpreter(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, res *Result) error {
	return sim.CheckOutputs(c, numDevices, args, func(out *hlo.Instruction, want []*tensor.Tensor) error {
		got, ok := res.All[out]
		switch {
		case !ok:
			return formatErr("%s is missing from the result checked against the interpreter", out.Name)
		case len(got) != numDevices:
			return formatErr("%s has %d per-device values for a %d-device ring", out.Name, len(got), numDevices)
		}
		for d, g := range got {
			if !g.Equal(want[d]) {
				return formatErr("%s on device %d diverges bitwise from the interpreter", out.Name, d)
			}
		}
		return nil
	})
}
