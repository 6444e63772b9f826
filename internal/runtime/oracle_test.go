package runtime_test

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
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

// TestWireOnlyStepIsTheModels is the virtual clock's oracle. A step is
// max-plus arithmetic over per-op costs — monotone and 1-Lipschitz in
// each — so on programs the machine model prices at no compute (chains
// of starts and dones, a loop of permutes, group collectives, blocking
// permutes that reach only some devices), a run's step at TimeScale k
// is the simulator's step times k, plus at most the compute the devices
// measured between them. So sim ≤ StepTime/k ≤ sim + n·Compute/k, where
// Compute is the per-device average, up to the nanosecond each injected
// wire is truncated to. Both transports take the same wire rule.
func TestWireOnlyStepIsTheModels(t *testing.T) {
	const n, scale = 4, 1e4
	spec := machine.TPUv4()
	ring := func(step int) []hlo.SourceTargetPair {
		pairs := make([]hlo.SourceTargetPair, n)
		for d := range pairs {
			pairs[d] = hlo.SourceTargetPair{Source: d, Target: (d + step) % n}
		}
		return pairs
	}
	partial := []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 2}}
	progs := map[string]*hlo.Computation{}

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
	progs["start-done-chains"] = chains

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
	progs["loop-of-permutes"] = loop

	groups := hlo.NewComputation("group-collectives")
	{
		c := groups
		p := c.Parameter(0, "p", []int{2, 4})
		full := c.AllGather(p, 0, [][]int{{0, 1, 2, 3}})
		sum := c.AllReduce(full, [][]int{{0, 1}, {2, 3}})
		shard := c.ReduceScatter(sum, 0, [][]int{{0, 2}, {1, 3}})
		c.AllToAll(shard, 0, 1, [][]int{{0, 1, 2, 3}})
	}
	progs["group-collectives"] = groups

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
	progs["partial-blocking-permute"] = blocking

	rng := rand.New(rand.NewSource(79))
	for name, c := range progs {
		model, err := sim.Simulate(c, n, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if model.Compute != 0 || model.StepTime <= 0 {
			t.Fatalf("%s: the model prices %v s of compute in a %v s step, want none in a positive one", name, model.Compute, model.StepTime)
		}
		x, err := runtime.Compile(c, n, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		args := randomArgs(c, n, rng)
		for _, tr := range transports {
			res, err := x.Run(context.Background(), args, runtime.Options{TimeScale: scale, Transport: tr})
			if err != nil {
				t.Fatalf("%s (%s): %v", name, tr, err)
			}
			if err := runtime.CheckInterpreter(c, n, args, res); err != nil {
				t.Fatalf("%s (%s): %v", name, tr, err)
			}
			b := res.Breakdown
			res.Release()
			const truncation = 64e-9 / scale // a nanosecond a wire, on any path
			step, lo, hi := b.StepTime/scale, model.StepTime-truncation, model.StepTime+n*b.Compute/scale
			t.Logf("%s (%s): step %.9g s at clock 1, model %.9g s, measured compute %.3g s", name, tr, step, model.StepTime, b.Compute/scale)
			if step < lo || step > hi {
				t.Errorf("%s (%s): step %.9g s at clock 1, want within [%.9g, %.9g]: the model's and its measured compute's",
					name, tr, step, lo, hi)
			}
		}
	}
}
