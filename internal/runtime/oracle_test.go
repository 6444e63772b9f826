package runtime_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"overlap/internal/autotune"
	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
)

// TestCheckedRunsOnAPoisonedArena runs the corpus, as built and through
// core.DefaultOptions, through Run and CheckInterpreter with both
// canaries on: the runtime poisons every buffer it releases and the
// interpreter every buffer it frees or hands back, so every buffer the
// interpreter borrows from the arena starts as NaN. A kernel that reads
// its destination before writing it, on either side, then fails the
// check. Each program runs and is checked twice, so the second check
// borrows what the first handed back and the second run what the first
// check did.
func TestCheckedRunsOnAPoisonedArena(t *testing.T) {
	defer runtime.PoisonReleased()()
	defer sim.PoisonReleased()()
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	rng := rand.New(rand.NewSource(71))
	check := func(name string, p corpus.Program) {
		t.Helper()
		x, err := runtime.Compile(p.Comp, p.Devices, machine.Spec{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		args := randomArgs(p.Comp, p.Devices, rng)
		for i := 0; i < 2; i++ {
			res, err := x.Run(context.Background(), args, runtime.Options{})
			if err != nil {
				t.Fatalf("%s: run %d: %v", name, i, err)
			}
			if err := runtime.CheckInterpreter(p.Comp, p.Devices, args, res); err != nil {
				t.Fatalf("%s: check %d: %v", name, i, err)
			}
			res.Release()
		}
	}
	for _, p := range progs {
		if p.Long() && (testing.Short() || raceEnabled) {
			continue
		}
		check(p.Name, p)
		if strings.HasPrefix(p.Name, "golden/") {
			continue // already decomposed
		}
		if _, err := core.Apply(p.Comp, opts); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		check(p.Name+"/default", p)
	}
}

// TestCheckedRunsShareTheArena: the daemon runs and checks one
// Executable for many requests at once, so runs and interpretations
// draw from and hand back to the same free lists concurrently. Eight
// goroutines each run and check one Executable three times with both
// canaries on; under the race detector a buffer the interpreter handed
// back while still reading it, or borrowed while a run still held it,
// is a reported race, and in any build a check that read a poisoned
// buffer fails.
func TestCheckedRunsShareTheArena(t *testing.T) {
	defer runtime.PoisonReleased()()
	defer sim.PoisonReleased()()
	const n, workers, runs = 4, 8, 3
	for name, c := range reusePrograms(t) {
		x, err := runtime.Compile(c, n, machine.TPUv4())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(73))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			args := randomArgs(c, n, rng)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < runs; i++ {
					res, err := x.Run(context.Background(), args, runtime.Options{})
					if err == nil {
						err = runtime.CheckInterpreter(c, n, args, res)
						res.Release()
					}
					if err != nil {
						t.Errorf("%s: goroutine %d run %d: %v", name, w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestWireOnlyStepIsTheModels is the timing pass's oracle: a run is
// timed by the pass sim.Simulate prices the program with, over the
// costs its devices recorded. So a run whose devices record the model's
// cost for every local op (ModelCosts), at TimeScale 1, must time to
// the simulator's numbers exactly: StepTime, Compute, CollectiveWire,
// Exposed, AsyncTransfers, PeakInFlight and every span, compared with
// ==. It checks, besides, that every device's cost row is the
// schedule's row of model costs — the tape's local ops line up with the
// schedule's — and that on every device its stall and collective spans
// sum to its exposed time, the MaxInFlight hold's included. The
// programs: five the model prices at no compute (chains of starts and
// dones, a loop of permutes, group collectives, blocking permutes that
// reach only some devices), every corpus program as built, and every
// corpus program under the knobs the tuner decides for it — the entries
// decisions.golden.json pins — on both transports.
func TestWireOnlyStepIsTheModels(t *testing.T) {
	const n = 4
	spec := machine.TPUv4()
	ring := func(step int) []hlo.SourceTargetPair {
		pairs := make([]hlo.SourceTargetPair, n)
		for d := range pairs {
			pairs[d] = hlo.SourceTargetPair{Source: d, Target: (d + step) % n}
		}
		return pairs
	}
	partial := []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 2}}
	type program struct {
		name    string
		devices int
		comp    *hlo.Computation
		long    bool
	}
	var progs []program

	chains := hlo.NewComputation("start-done-chains")
	{
		c := chains
		p := c.Parameter(0, "p", []int{8, 4})
		d1 := c.CollectivePermuteDone(c.CollectivePermuteStart(p, ring(1)))
		d2 := c.CollectivePermuteDone(c.CollectivePermuteStart(d1, ring(3)))
		d3 := c.CollectivePermuteDone(c.CollectivePermuteStart(d2, partial))
		// Two transfers on each link at once: the second's wire starts
		// where the first's ends.
		s4 := c.CollectivePermuteStart(d3, ring(1))
		s5 := c.CollectivePermuteStart(d1, ring(1))
		c.Tuple(c.CollectivePermuteDone(s4), c.CollectivePermuteDone(s5))
	}
	progs = append(progs, program{name: "start-done-chains", devices: n, comp: chains})

	body := hlo.NewComputation("body")
	{
		b := body
		p := b.Parameter(0, "p", []int{8, 4})
		q := b.Parameter(1, "q", []int{8, 4})
		sp := b.CollectivePermuteStart(p, ring(1))
		sq := b.CollectivePermuteStart(q, partial)
		b.Tuple(b.CollectivePermuteDone(sp), b.CollectivePermuteDone(sq))
	}
	loop := hlo.NewComputation("loop-of-permutes")
	{
		c := loop
		c.Loop(body, 5, 0, c.Parameter(0, "x", []int{8, 4}), c.Parameter(1, "y", []int{8, 4}))
	}
	progs = append(progs, program{name: "loop-of-permutes", devices: n, comp: loop})

	groups := hlo.NewComputation("group-collectives")
	{
		c := groups
		p := c.Parameter(0, "p", []int{2, 4})
		full := c.AllGather(p, 0, [][]int{{0, 1, 2, 3}})
		sum := c.AllReduce(full, [][]int{{0, 1}, {2, 3}})
		shard := c.ReduceScatter(sum, 0, [][]int{{0, 2}, {1, 3}})
		c.AllToAll(shard, 0, 1, [][]int{{0, 1, 2, 3}})
	}
	progs = append(progs, program{name: "group-collectives", devices: n, comp: groups})

	blocking := hlo.NewComputation("partial-blocking-permute")
	{
		c := blocking
		p := c.Parameter(0, "p", []int{8, 4})
		s := c.CollectivePermuteStart(p, ring(1))
		// Device 3's clock runs a wire ahead, and a blocking permute in
		// which it has no source does not hold the others to it.
		ahead := c.CollectivePermuteDone(c.CollectivePermuteStart(p, []hlo.SourceTargetPair{{Source: 0, Target: 3}}))
		a := c.CollectivePermute(ahead, partial) // while s is on the wire
		b := c.CollectivePermute(a, []hlo.SourceTargetPair{{Source: 2, Target: 3}})
		c.Tuple(c.CollectivePermuteDone(s), b)
	}
	progs = append(progs, program{name: "partial-blocking-permute", devices: n, comp: blocking})

	// A fifth: more transfers posted back to back on each link than
	// MaxInFlight allows in flight, so senders hold.
	flood := hlo.NewComputation("in-flight-flood")
	{
		c := flood
		p := c.Parameter(0, "p", []int{64, 64})
		var dones []*hlo.Instruction
		var starts []*hlo.Instruction
		for i := 0; i < spec.MaxInFlight+3; i++ {
			starts = append(starts, c.CollectivePermuteStart(p, ring(1)))
		}
		for _, s := range starts {
			dones = append(dones, c.CollectivePermuteDone(s))
		}
		c.Tuple(dones...)
	}
	progs = append(progs, program{name: "in-flight-flood", devices: n, comp: flood})

	corpusProgs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	// Under the model's costs the steps the tuner's stage 2 executes are
	// a function of the program alone, so the knobs it decides do not
	// depend on the host.
	defer runtime.ModelCosts(spec)()
	rng := rand.New(rand.NewSource(79))
	for _, p := range corpusProgs {
		if p.Long() && (testing.Short() || raceEnabled) {
			continue
		}
		progs = append(progs, program{name: p.Name, devices: p.Devices, comp: p.Comp.Clone(), long: p.Long()})
		if strings.HasPrefix(p.Name, "golden/") {
			continue // already decomposed, and decided on as such
		}
		tuned, err := autotune.Tune(p.Comp, p.Devices, randomArgs(p.Comp, p.Devices, rng),
			autotune.Options{Spec: spec, TopK: 1, TimeScale: -1, DisableCache: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		decided := p.Comp.Clone()
		if _, err := tuned.ApplyBest(decided); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		progs = append(progs, program{name: p.Name + "/" + tuned.Plan.BestName, devices: p.Devices, comp: decided, long: p.Long()})
	}

	unbounded := spec
	unbounded.MaxInFlight = math.MaxInt32
	held := 0
	for _, p := range progs {
		model, simSpans, err := sim.SimulateTrace(p.comp, p.devices, spec)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		slices.SortStableFunc(simSpans, func(a, b obs.Span) int {
			switch {
			case obs.SpanLess(a, b):
				return -1
			case obs.SpanLess(b, a):
				return 1
			}
			return 0
		})
		x, err := runtime.Compile(p.comp, p.devices, spec)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		row := x.TimingSchedule().Row(spec.InstructionCost)
		args := randomArgs(p.comp, p.devices, rng)
		for _, tr := range transports {
			if tr == runtime.TransportProc && p.long {
				continue // four processes per run; the small programs cover the transport
			}
			res, err := x.Run(context.Background(), args, runtime.Options{TimeScale: 1, Trace: true, Transport: tr})
			if err != nil {
				t.Fatalf("%s (%s): %v", p.name, tr, err)
			}
			if err := runtime.CheckInterpreter(p.comp, p.devices, args, res); err != nil {
				t.Fatalf("%s (%s): %v", p.name, tr, err)
			}
			got, trace := res.Breakdown, res.Trace
			res.Release()
			cost, clocks := x.LastPass()
			for d, r := range cost {
				if !slices.Equal(r, row) {
					t.Errorf("%s (%s): device %d's cost row does not line up with the schedule's local ops", p.name, tr, d)
					break
				}
			}
			waited := make([]float64, p.devices)
			for _, sp := range trace {
				if sp.Cat == obs.CatStall || sp.Cat == obs.CatCollective {
					waited[sp.Device] += sp.Dur
				}
			}
			for d, e := range clocks.Exposed[:min(p.devices, obs.TraceMaxDevices)] {
				if math.Abs(waited[d]-e) > 1e-9 {
					t.Errorf("%s (%s): device %d's stall and collective spans sum to %g s, its exposed time to %g s", p.name, tr, d, waited[d], e)
				}
			}
			if got != model {
				t.Errorf("%s (%s): the replay reads %+v, the model %+v", p.name, tr, got, model)
			}
			if !slices.Equal(trace, simSpans) {
				t.Errorf("%s (%s): the replay's %d spans differ from the model's %d", p.name, tr, len(trace), len(simSpans))
				for i := range min(len(trace), len(simSpans)) {
					if trace[i] != simSpans[i] {
						t.Errorf("first difference at span %d: replay %+v, model %+v", i, trace[i], simSpans[i])
						break
					}
				}
			}
			runtime.ReleaseTrace(trace)
		}
		if free, err := sim.Simulate(p.comp, p.devices, unbounded); err == nil && free != model {
			held++ // the model's numbers move with the hold
		}
	}
	t.Logf("%d programs, %d of them holding a sender at MaxInFlight", len(progs), held)
	if held == 0 {
		t.Error("no program holds a sender at MaxInFlight: the hold went unchecked")
	}
}
