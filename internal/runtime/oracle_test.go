package runtime_test

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
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
