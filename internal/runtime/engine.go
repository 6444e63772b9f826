package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/obs"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// engine is a run context: one concurrent execution of an Executable at
// a time — the generation states blocking collectives gather in, the
// mailbox fabric every device receives through, the fault injector (nil
// when no plan is set), the cost table and the replay's state, and the
// abort machinery that lets any device — or the run deadline — fail the
// run without deadlocking the others. It
// reads the Executable and writes only its own state. A run checks a
// context out of its Executable and, after a clean run, hands it back
// reset for the next one (checkin): its tables, mailboxes and generation
// states outlive the run. A run that failed or aborted never
// hands its context back: its mailboxes, counters and half-finished
// generations die with it.
type engine struct {
	*Executable
	opts Options
	args [][]*tensor.Tensor

	fabric  *fabric
	inj     *injector
	devices []*device
	// running counts the run's device goroutines.
	running sync.WaitGroup
	// placeholder is a tuple's value — its operands are read by name —
	// on every device and every run of the context: a rank-0 zero nobody
	// owns or writes.
	placeholder *tensor.Tensor

	// gens[box] holds a blocking collective's generation states, laid
	// out by layoutGens.
	gens  [][]genState
	abort chan struct{}
	once  sync.Once
	err   error

	// epoch is when the run's Run call began, on the wall clock: what a
	// failure's Elapsed and the watchdog's attribution count from.
	epoch    time.Time
	failedAt time.Time

	// costs is the run's cost table — each device's row, which the
	// device appends to (device.cost) — and clocks the state of the
	// timing pass that times the run from it.
	costs  [][]float64
	clocks sim.Clocks

	// shelf holds the result tables this context's released results
	// handed back, for its next assemble to refill.
	shelf *tableShelf
}

// tableShelf is where a run context's released result tables wait for
// its next assemble. A Result points at the shelf, not at the context,
// so a Result nobody releases keeps its tables and the shelf alive, not
// the context or its Executable. mu guards free: a holder releases a
// result on its own goroutine, whenever it is done with it.
type tableShelf struct {
	mu   sync.Mutex
	free []*resultTables
}

// resultTables is a Result's bookkeeping besides its tensors: the All
// map, the per-device slices it maps to (cut from one array), and the
// list of outputs the run owns. Release hands them back to home, the
// shelf of the run context that filled them, cleared, and its next
// assemble refills them: the outputs are the same every run, so the
// map's keys are too.
type resultTables struct {
	home  *tableShelf
	all   map[*hlo.Instruction][]*tensor.Tensor
	per   []*tensor.Tensor
	owned []*tensor.Tensor
}

// tables lends the tables for one result: ones a released result
// handed back, or new ones.
func (e *engine) tables() *resultTables {
	sh := e.shelf
	sh.mu.Lock()
	if n := len(sh.free); n > 0 {
		t := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		sh.mu.Unlock()
		return t
	}
	sh.mu.Unlock()
	outs := len(e.tape.outputs)
	return &resultTables{
		home:  sh,
		all:   make(map[*hlo.Instruction][]*tensor.Tensor, outs),
		per:   make([]*tensor.Tensor, outs*e.n),
		owned: make([]*tensor.Tensor, 0, outs*e.n),
	}
}

// giveBack hands released tables back to their shelf, cleared of the
// result's tensors.
func (t *resultTables) giveBack() {
	clear(t.per)
	clear(t.owned)
	t.owned = t.owned[:0]
	sh := t.home
	sh.mu.Lock()
	sh.free = append(sh.free, t)
	sh.mu.Unlock()
}

// newEngine builds a run context for x and prepares it for a run under
// opts.
func newEngine(x *Executable, opts Options) (*engine, error) {
	e := &engine{
		Executable:  x,
		gens:        layoutGens(x.sched),
		abort:       make(chan struct{}),
		placeholder: tensor.New(),
		shelf:       &tableShelf{},
	}
	e.fabric = newFabric(e)
	e.clocks = x.sched.NewClocks(rtStallSpans, rtCollectiveSpans)
	e.devices = make([]*device, e.n)
	e.costs = make([][]float64, e.n)
	row := x.sched.Locals
	table := make([]float64, e.n*row)
	for d := range e.devices {
		e.devices[d] = newDevice(e, d)
		e.costs[d] = table[d*row : (d+1)*row : (d+1)*row]
		e.devices[d].cost = e.costs[d][:0]
	}
	return e, e.prepare(opts)
}

// checkout lends a run context for one run under opts: one a clean run
// handed back, or a new one.
func (x *Executable) checkout(opts Options) (*engine, error) {
	x.mu.Lock()
	n := len(x.idle)
	if n == 0 {
		x.mu.Unlock()
		return newEngine(x, opts)
	}
	e := x.idle[n-1]
	x.idle[n-1] = nil
	x.idle = x.idle[:n-1]
	x.mu.Unlock()
	return e, e.prepare(opts)
}

// checkin resets the context of a clean run and hands it back for a
// later run.
func (x *Executable) checkin(e *engine) {
	e.reset()
	x.mu.Lock()
	x.idle = append(x.idle, e)
	x.mu.Unlock()
}

// prepare sets a context up for one run under opts: the fault injector
// and the transport.
func (e *engine) prepare(opts Options) error {
	e.opts = opts
	if opts.Faults != nil && len(opts.Faults.Faults) > 0 {
		e.inj = newInjector(opts.Faults, e.sched, e.n)
	}
	return e.fabric.bind()
}

// reset empties a context after a clean run: no tensor, fault plan or
// argument of the run stays reachable from it. A clean
// run consumed every parcel, token and generation it made — the member
// completing a generation clears its state — so what is left to clear
// is the tables.
func (e *engine) reset() {
	e.opts, e.args, e.inj = Options{}, nil, nil
	e.fabric.reset()
	for _, d := range e.devices {
		d.reset()
	}
}

// fail records the first error and releases every blocked goroutine.
// Everything that can stop a run funnels through here, so the error the
// caller sees is always the first failure, never a cascade effect —
// and always carries the run's ID for correlation.
func (e *engine) fail(err error) {
	e.once.Do(func() {
		var re *RunError
		if errors.As(err, &re) && re.RunID == "" {
			re.RunID = e.opts.RunID
		}
		e.err = err
		e.failedAt = time.Now()
		rtAborts.Inc()
		obs.Log().Error("runtime.abort", "run_id", e.opts.RunID, "error", err.Error())
		close(e.abort)
	})
}

// run launches one goroutine per device, arms the deadline watchdog,
// joins everything, winds down the fabric, and assembles the per-device
// outputs and the replayed timing. epoch is when the caller's Run began:
// a failure reports its elapsed time from there, as the caller's
// deadline counts it.
func (e *engine) run(ctx context.Context, args [][]*tensor.Tensor, epoch time.Time) (*Result, error) {
	e.args = args
	e.epoch = epoch
	// Bring the transport's data plane up before any device goroutine
	// exists: a worker-spawn failure becomes a structured run error, not
	// a fleet of devices blocked on a fabric that never formed. The
	// transport tears its own partial state down on failure, so the
	// normal shutdown below must not run again.
	if err := e.fabric.start(); err != nil {
		e.fail(&RunError{
			Device: -1, Phase: PhaseTransport,
			Elapsed: e.sinceDur(), Err: err,
		})
		return nil, e.err
	}
	for _, dev := range e.devices {
		e.running.Add(1)
		go e.runDevice(dev)
	}

	// The watchdog turns a stalled transfer or livelocked rendezvous
	// into a structured, attributed error instead of a hang: when the
	// context expires it fails the run, which releases every select on
	// e.abort. A context that can never expire needs none.
	stopWatch := func() {}
	if ctx.Done() != nil {
		stopWatch = e.watch(ctx)
	}
	e.running.Wait()
	stopWatch()
	e.fabric.shutdown()
	for _, dev := range e.devices {
		dev.stash.Drain()
	}

	if e.err != nil {
		rtAbortJoin.Observe(time.Since(e.failedAt).Seconds())
		return nil, e.err
	}
	return e.assemble(e.devices), nil
}

// watch starts the deadline watchdog and returns the function that
// stops it and waits for it to exit.
func (e *engine) watch(ctx context.Context) (stop func()) {
	var watchdog sync.WaitGroup
	watchStop := make(chan struct{})
	watchdog.Add(1)
	go func() {
		defer watchdog.Done()
		select {
		case <-ctx.Done():
			derr := e.deadlineError(ctx.Err())
			e.fail(derr)
			if e.err == derr {
				// The deadline won the race to be the first error
				// (fail is once-only, so e.err is stable here).
				rtAbortDeadlines.Inc()
			}
		case <-watchStop:
		}
	}()
	return func() {
		close(watchStop)
		watchdog.Wait()
	}
}

// runDevice is one device goroutine. A panicking kernel (malformed
// einsum spec, shape bug) must not crash the whole process: it becomes
// the engine's first error, which also closes the abort channel so peer
// devices blocked on fabric sends drain instead of deadlocking.
func (e *engine) runDevice(dev *device) {
	defer e.running.Done()
	defer func() {
		if r := recover(); r != nil {
			_, instr, _ := dev.stat()
			e.fail(&RunError{
				Device: dev.id, Instr: instr, Phase: PhaseCompute,
				Elapsed: e.sinceDur(), Err: fmt.Errorf("panic: %v", r),
			})
		}
	}()
	dev.run()
}

// param is parameter index's value on device dev: args[index][dev], or
// the one replicated tensor.
func (e *engine) param(index, dev int) *tensor.Tensor {
	set := e.args[index]
	if len(set) == 1 {
		return set[0]
	}
	return set[dev]
}

// deadlineError attributes a deadline abort: to the first fired drop
// when injection caused the stall (a delay only lengthens a wire in the
// replay), otherwise to the device that
// has been blocked the longest in the most communication-bound phase.
func (e *engine) deadlineError(cause error) *RunError {
	re := &RunError{Device: -1, Elapsed: e.sinceDur(), Err: cause}
	if e.inj != nil {
		if ff := e.inj.drop.Load(); ff != nil {
			re.Device = ff.fault.Dst
			re.Instr = ff.instr
			re.Phase = PhaseReceive
			re.Fault = ff.fault.String()
			return re
		}
	}
	rank := map[Phase]int{PhaseReceive: 3, PhasePost: 2, PhaseRendezvous: 1, PhaseCompute: 0}
	bestSince := 0.0
	for _, dev := range e.devices {
		phase, instr, since := dev.stat()
		if phase == "" {
			continue
		}
		better := re.Phase == "" ||
			rank[phase] > rank[re.Phase] ||
			(rank[phase] == rank[re.Phase] && since < bestSince)
		if better {
			re.Device = dev.id
			re.Instr = instr
			re.Phase = phase
			bestSince = since
		}
	}
	return re
}

// assemble merges the per-device outputs into the caller-facing
// result — the output buffers the devices own move out of their arenas
// with it — and times the run from its cost table with the timing
// pass: the Breakdown and, for a traced run, the Trace, in a span slab
// of the schedule's bound. Its map and slices are tables a released
// result handed back, when there are any. It runs after every goroutine
// has joined, so all device- and link-local state is safely visible.
func (e *engine) assemble(devices []*device) *Result {
	t := e.tables()
	res := &Result{RunID: e.opts.RunID, All: t.all, tables: t}
	for i, out := range e.tape.outputs {
		per := t.per[i*e.n : (i+1)*e.n : (i+1)*e.n]
		for d, dev := range devices {
			per[d] = dev.vals[out.slot]
			if dev.owned[out.slot] {
				t.owned = append(t.owned, per[d])
			}
		}
		res.All[out.in] = per
	}
	if root := e.comp.Root(); root != nil {
		res.Values = res.All[root]
	}
	for _, dev := range devices {
		res.ArenaPeakBytes = max(res.ArenaPeakBytes, dev.arenaPeak)
	}

	var slab []obs.Span
	if e.opts.Trace {
		slab = takeSpans(e.sched.Spans)
	}
	res.Breakdown, res.Trace = e.clocks.Time(e.costs, e.opts.TimeScale, e.inj.delay, slab)
	res.Breakdown.Record("runtime")
	return res
}

// since returns wall-clock seconds elapsed from the execution epoch:
// the deadline watchdog's time, never a device's clock.
func (e *engine) since() float64 { return time.Since(e.epoch).Seconds() }

// sinceDur returns the elapsed run time as a duration.
func (e *engine) sinceDur() time.Duration { return time.Since(e.epoch) }
