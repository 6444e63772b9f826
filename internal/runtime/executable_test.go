package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// reuseProgram builds a 4-device GPT_32B miniature through the given
// pipeline: decomposed, it is all asynchronous permutes; rolled, a
// blocking permute per loop trip.
func reuseProgram(t *testing.T, opts core.Options) *hlo.Computation {
	t.Helper()
	cfg, err := models.ByName("GPT_32B")
	if err != nil {
		t.Fatal(err)
	}
	mini, err := models.Miniature(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := models.BuildLayerStep(mini)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Apply(c, opts); err != nil {
		t.Fatal(err)
	}
	return c
}

func reusePrograms(t *testing.T) map[string]*hlo.Computation {
	return map[string]*hlo.Computation{
		"decomposed": reuseProgram(t, forceOpts(false, false)),
		"rolled":     reuseProgram(t, core.Options{Spec: machine.TPUv4(), Knobs: core.Knobs{Rolled: true, Scheduler: core.SchedulerNone}}),
	}
}

// runMatchesInterpreter runs the Executable once and requires every
// device's root value to equal the interpreter's bit for bit. It
// reports instead of failing the test so that concurrent runs can call
// it.
func runMatchesInterpreter(x *runtime.Executable, c *hlo.Computation, n int, args [][]*tensor.Tensor, opts runtime.Options) (*runtime.Result, error) {
	want, err := sim.Interpret(c, n, args)
	if err != nil {
		return nil, fmt.Errorf("interpret: %w", err)
	}
	res, err := x.Run(context.Background(), args, opts)
	if err != nil {
		return nil, err
	}
	for d := 0; d < n; d++ {
		if !res.Values[d].Equal(want[d]) {
			return nil, fmt.Errorf("device %d diverges from the interpreter by %v", d, res.Values[d].MaxDifference(want[d]))
		}
	}
	return res, nil
}

// TestExecutableReusable pins the Executable's one promise: it is
// written by Compile and only read afterwards. One Executable run three
// times in a row and four times at once, every run on its own
// arguments, equals the interpreter bit for bit each time — on both
// transports, with every released buffer poisoned, so state leaking
// from one run into another (a slot table, a mailbox watermark, a
// loop iteration) or a buffer shared between two concurrent runs
// corrupts a checked result.
func TestExecutableReusable(t *testing.T) {
	defer runtime.PoisonReleased()()
	const n = 4
	for name, c := range reusePrograms(t) {
		x, err := runtime.Compile(c, n, machine.TPUv4())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tr := range transports {
			opts := runtime.Options{Transport: tr, TimeScale: 20}
			rng := rand.New(rand.NewSource(31))
			for run := 0; run < 3; run++ {
				res, err := runMatchesInterpreter(x, c, n, randomArgs(c, n, rng), opts)
				if err != nil {
					t.Fatalf("%s (%s): sequential run %d: %v", name, tr, run, err)
				}
				res.Release()
			}
			var wg sync.WaitGroup
			for run := 0; run < 4; run++ {
				args := randomArgs(c, n, rng)
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := runMatchesInterpreter(x, c, n, args, opts)
					if err != nil {
						t.Errorf("%s (%s): concurrent run %d: %v", name, tr, run, err)
						return
					}
					res.Release()
				}()
			}
			wg.Wait()
		}
	}
}

// TestExecutableTimeScaleIsPerRun: the tape stores modeled seconds and
// each run scales them, so one Executable serves every TimeScale. The
// wire time a run reports is the sum of the durations it injected; it
// must equal, exactly, what a one-shot Run at that scale reports — the
// injected time.Durations are the same values.
func TestExecutableTimeScaleIsPerRun(t *testing.T) {
	const n = 4
	spec := machine.TPUv4()
	for name, c := range reusePrograms(t) {
		x, err := runtime.Compile(c, n, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		args := randomArgs(c, n, rand.New(rand.NewSource(37)))
		for _, tr := range transports {
			for _, scale := range []float64{0, 50, 4000, 50} {
				opts := runtime.Options{Spec: spec, TimeScale: scale, Transport: tr}
				oneShot, err := runtime.Run(c, n, args, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := x.Run(context.Background(), args, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, want := res.Breakdown.CollectiveWire, oneShot.Breakdown.CollectiveWire
				if got != want || (scale > 0) != (got > 0) {
					t.Fatalf("%s (%s) at TimeScale %v: the Executable injected %v s of wire, the one-shot run %v s", name, tr, scale, got, want)
				}
				oneShot.Release()
				res.Release()
			}
		}
	}
}

// TestExecutableZeroSpec: callers that never inject wire time compile
// with no spec at all; a run that then asks for injection fails with
// the spec's own validation error, as the one-shot Run always has.
func TestExecutableZeroSpec(t *testing.T) {
	const n = 4
	c := reuseProgram(t, forceOpts(false, false))
	args := randomArgs(c, n, rand.New(rand.NewSource(41)))
	x, err := runtime.Compile(c, n, machine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runMatchesInterpreter(x, c, n, args, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	want := machine.Spec{}.Validate()
	if want == nil {
		t.Fatal("the zero Spec validates")
	}
	_, err = x.Run(context.Background(), args, runtime.Options{TimeScale: 50})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("TimeScale 50 on a zero-Spec Executable: %v, want %v", err, want)
	}
	_, oneShot := runtime.Run(c, n, args, runtime.Options{TimeScale: 50})
	if oneShot == nil || oneShot.Error() != want.Error() {
		t.Fatalf("one-shot Run with TimeScale 50 and no Spec: %v, want %v", oneShot, want)
	}
}

// TestClockPutsARunOnTheModelRatio: at the clock Clock derives on the
// untransformed golden site, a run's injected wire stands to its
// measured compute as the machine model's wire stands to its compute —
// within 2×, the best of three runs, for the host's noise. A zero-Spec
// Executable has no model to measure against and fails with the spec's
// error; a program the model prices at no compute runs at clock 1.
func TestClockPutsARunOnTheModelRatio(t *testing.T) {
	const n = 4
	ctx := context.Background()
	spec := machine.TPUv4()
	c, args := benchSite(t, nil)
	x, err := runtime.Compile(c, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := x.Clock(ctx, args)
	if err != nil || clock <= 0 {
		t.Fatalf("Clock on the golden site: %v, %v", clock, err)
	}
	modeled, err := sim.Simulate(c, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := modeled.CollectiveWire / modeled.Compute
	var got []float64
	for run := 0; run < 3; run++ {
		res, err := x.Run(ctx, args, runtime.Options{TimeScale: clock})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Breakdown.CollectiveWire/res.Breakdown.Compute)
		res.Release()
	}
	t.Logf("clock %.4g: measured wire/compute %.3g, modeled %.3g", clock, got, want)
	if !slices.ContainsFunc(got, func(r float64) bool { return r >= want/2 && r <= want*2 }) {
		t.Fatalf("at clock %.4g the runs measured wire/compute %.3g, the model %.3g: none within 2×", clock, got, want)
	}

	zero, err := runtime.Compile(c, n, machine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zero.Clock(ctx, args); err == nil || err.Error() != (machine.Spec{}).Validate().Error() {
		t.Fatalf("Clock on a zero-Spec Executable: %v, want the spec's validation error", err)
	}

	wireOnly := hlo.NewComputation("wire-only")
	p := wireOnly.Parameter(0, "p", []int{2, 2})
	wireOnly.CollectivePermuteDone(wireOnly.CollectivePermuteStart(p, ringPairs(n)))
	if m, err := sim.Simulate(wireOnly, n, spec); err != nil || m.Compute != 0 {
		t.Fatalf("the wire-only program models %v s of compute (%v), want 0", m.Compute, err)
	}
	wx, err := runtime.Compile(wireOnly, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	if clock, err := wx.Clock(ctx, randomArgs(wireOnly, n, rand.New(rand.NewSource(53)))); err != nil || clock != 1 {
		t.Fatalf("Clock on a program with no modeled compute: %v, %v; want 1", clock, err)
	}
}

// TestClockModelsFromTheHeldSchedule: the modeled compute Clock divides
// by comes from the schedule the Executable already holds, with no
// second verification or lowering, and is sim.Simulate's Compute
// exactly, on every corpus program.
func TestClockModelsFromTheHeldSchedule(t *testing.T) {
	spec := machine.TPUv4()
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		x, err := runtime.Compile(p.Comp, p.Devices, spec)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		want, err := sim.Simulate(p.Comp, p.Devices, spec)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := x.ModeledCompute(); got != want.Compute {
			t.Errorf("%s: Clock models %v s of compute, sim.Simulate %v s", p.Name, got, want.Compute)
		}
	}
}

// TestExecutableSurvivesAbortedRuns: an aborted run's state — parcels
// still on links, half-filled mailboxes, a rendezvous generation that
// never completed — belongs to its engine and dies with it. After a
// dropped transfer that a deadline turns into an abort, and after an
// injected crash, the same Executable runs clean and bit-identical.
func TestExecutableSurvivesAbortedRuns(t *testing.T) {
	defer runtime.PoisonReleased()()
	site, edges := faultSite(t)
	c := site.build()
	x, err := runtime.Compile(c, site.n, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	aborts := []struct {
		fault    runtime.Fault
		deadline time.Duration
		sentinel error
	}{
		{runtime.Fault{Kind: runtime.FaultDrop, Src: edges[0][0], Dst: edges[0][1], K: 0}, 200 * time.Millisecond, context.DeadlineExceeded},
		{runtime.Fault{Kind: runtime.FaultCrash, Device: 1, K: 2}, 10 * time.Second, runtime.ErrInjectedCrash},
	}
	for _, tr := range transports {
		for _, a := range aborts {
			ctx, cancel := context.WithTimeout(context.Background(), a.deadline)
			_, err := x.Run(ctx, site.args, runtime.Options{
				Transport: tr, TimeScale: 20,
				Faults: &runtime.FaultPlan{Seed: 3, Faults: []runtime.Fault{a.fault}},
			})
			cancel()
			var re *runtime.RunError
			if !errors.Is(err, a.sentinel) || !errors.As(err, &re) {
				t.Fatalf("%s: injected %s: error %v, want a *RunError wrapping %v", tr, a.fault, err, a.sentinel)
			}
			res, err := runMatchesInterpreter(x, c, site.n, site.args, runtime.Options{Transport: tr, TimeScale: 20})
			if err != nil {
				t.Fatalf("%s: clean run after %s: %v", tr, a.fault, err)
			}
			res.Release()
		}
	}
}

// TestExecutableTracedAndUntracedInterleave: tracing is a run's choice.
// Alternating traced and untraced runs on one Executable, the traced
// ones carry spans in obs.SpanLess order, the untraced ones none, and
// all of them compute the same values.
func TestExecutableTracedAndUntracedInterleave(t *testing.T) {
	const n = 4
	c := reuseProgram(t, forceOpts(false, false))
	x, err := runtime.Compile(c, n, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	args := randomArgs(c, n, rand.New(rand.NewSource(43)))
	for _, tr := range transports {
		for run := 0; run < 4; run++ {
			traced := run%2 == 0
			res, err := runMatchesInterpreter(x, c, n, args, runtime.Options{
				Transport: tr, TimeScale: 20, Trace: traced,
			})
			if err != nil {
				t.Fatalf("%s run %d: %v", tr, run, err)
			}
			if traced == (len(res.Trace) == 0) {
				t.Fatalf("%s run %d: traced=%v but %d spans", tr, run, traced, len(res.Trace))
			}
			for i, s := range res.Trace {
				if i > 0 && obs.SpanLess(s, res.Trace[i-1]) {
					t.Fatalf("%s run %d: spans %d and %d are out of SpanLess order", tr, run, i-1, i)
				}
			}
			res.Release()
		}
	}
}

// zeroTripProgram wraps an asynchronous permute and an add in a loop
// that never runs: its edges exist, and carry nothing. (The builder
// refuses a trip count below one; the runtime accepts zero, so the
// count is set on the built instruction.)
func zeroTripProgram() *hlo.Computation {
	body := hlo.NewComputation("body")
	p := body.Parameter(0, "p", []int{2, 2})
	done := body.CollectivePermuteDone(body.CollectivePermuteStart(p, ringPairs(4)))
	body.Tuple(body.Add(done, p))
	c := hlo.NewComputation("zero-trip")
	x := c.Parameter(0, "x", []int{2, 2})
	loop := c.Loop(body, 1, 0, x)
	hlo.EditAttrs(loop, func(a *hlo.Attrs) { a.TripCount = 0 })
	c.Add(loop, x)
	return c
}

// TestTraceLayoutSizesEveryBuffer runs every corpus program — as built,
// rolled, and decomposed, plus a zero-trip loop — traced and untraced
// and inspects the span slab the timing pass recorded into. The trace
// layout is a compile-time bound on what a run records short of a
// MaxInFlight hold, and these runs inject no wire, so no sender holds:
// a traced run's slab must have been drawn once at exactly that count
// and never have grown (an append past capacity would show as a larger
// one), hold no gap — a span the pass left zero-valued — and be in
// SpanLess order; an untraced run must have drawn none. (A device
// outside the trace window recording nothing is TestTraceRecording's:
// no corpus ring is that wide. A hold growing the slab is
// TestHoldRecordsPastTheSlab's.)
func TestTraceLayoutSizesEveryBuffer(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, corpus.Program{Name: "zero-trip", Devices: 4, Comp: zeroTripProgram()})
	spec := machine.TPUv4()
	decompose := core.DefaultOptions(spec)
	decompose.UseCostModel = false
	forms := []struct {
		name string
		opts *core.Options
	}{
		{"as-built", nil},
		{"rolled", &core.Options{Spec: spec, Knobs: core.Knobs{Rolled: true, Scheduler: core.SchedulerNone}}},
		{"decomposed", &decompose},
	}
	rng := rand.New(rand.NewSource(47))
	for _, p := range progs {
		if p.Long() && (testing.Short() || raceEnabled) {
			continue
		}
		for _, form := range forms {
			if p.Name == "zero-trip" && form.opts != nil {
				continue // hlo.Verify, which every pass ends with, refuses the trip count
			}
			c := p.Comp.Clone()
			if form.opts != nil {
				if _, err := core.Apply(c, *form.opts); err != nil {
					t.Fatalf("%s/%s: %v", p.Name, form.name, err)
				}
			}
			x, err := runtime.Compile(c, p.Devices, spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, form.name, err)
			}
			args := randomArgs(c, p.Devices, rng)
			for _, tr := range transports {
				if tr == runtime.TransportProc && p.Long() {
					continue // four processes per run; the small programs cover the transport
				}
				for _, traced := range []bool{true, false} {
					label := fmt.Sprintf("%s/%s (%s, traced %v)", p.Name, form.name, tr, traced)
					res, err := x.Run(context.Background(), args, runtime.Options{Transport: tr, Trace: traced})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					trace := res.Trace
					res.Release()
					if !traced {
						if trace != nil {
							t.Fatalf("%s: an untraced run returned %d spans", label, len(trace))
						}
						continue
					}
					if want := x.TraceLayout(); cap(trace) != want {
						t.Fatalf("%s: %d spans in a slab of %d, the layout says %d", label, len(trace), cap(trace), want)
					}
					if len(trace) == 0 && p.Name != "zero-trip" {
						t.Fatalf("%s: a traced run recorded nothing", label)
					}
					for i, sp := range trace {
						if sp.Name == "" || sp.Dur <= 0 {
							t.Fatalf("%s: span %d of the trace is a gap: %+v", label, i, sp)
						}
						if i > 0 && obs.SpanLess(sp, trace[i-1]) {
							t.Fatalf("%s: spans %d and %d are out of SpanLess order", label, i-1, i)
						}
					}
					runtime.ReleaseTrace(trace)
				}
			}
		}
	}
}

// TestRunRefusesAModifiedComputation pins the Executable's
// precondition: the computation must not change while it is in use. A
// Run after a rewrite fails with ErrModified, before anything executes;
// a fresh Compile of the rewritten computation runs it.
func TestRunRefusesAModifiedComputation(t *testing.T) {
	const n = 2
	c := hlo.NewComputation("modified")
	a := c.Parameter(0, "a", []int{4, 4})
	c.Add(a, a)
	args := randomArgs(c, n, rand.New(rand.NewSource(43)))
	x, err := runtime.Compile(c, n, machine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runMatchesInterpreter(x, c, n, args, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	c.Add(c.Root(), a) // a new root: the tape describes the old program
	if _, err := x.Run(context.Background(), args, runtime.Options{}); !errors.Is(err, runtime.ErrModified) {
		t.Fatalf("a run after the computation changed: error %v, want one wrapping ErrModified", err)
	}
	if got := x.IdleRunContexts(); got != 1 {
		t.Fatalf("the refused run touched the run contexts: %d idle, want 1", got)
	}
	y, err := runtime.Compile(c, n, machine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = runMatchesInterpreter(y, c, n, args, runtime.Options{})
	if err != nil {
		t.Fatalf("the recompiled program: %v", err)
	}
	res.Release()
}
