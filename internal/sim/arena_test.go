package sim_test

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// randomArgs draws one tensor per device for every parameter.
func randomArgs(c *hlo.Computation, n int, rng *rand.Rand) [][]*tensor.Tensor {
	params := c.Parameters()
	args := make([][]*tensor.Tensor, len(params))
	for _, p := range params {
		set := make([]*tensor.Tensor, n)
		for d := range set {
			set[d] = tensor.Rand(rng, p.Shape...)
		}
		args[p.ParamIndex] = set
	}
	return args
}

// TestInterpretReleasesOnlyDeadValues runs the corpus, as built and
// through the paper's pipeline, with every buffer the interpreter
// frees overwritten by NaN first, and wants every output bit for bit
// what InterpretAll computes keeping every top-level value alive: a
// value freed before its last reader, or a buffer reused while a
// live value still names it, turns a result to NaN, which equals
// nothing. The arguments must come out untouched: they are never a
// buffer the interpreter reuses.
func TestInterpretReleasesOnlyDeadValues(t *testing.T) {
	defer sim.PoisonReleased()()
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	rng := rand.New(rand.NewSource(13))
	check := func(name string, c *hlo.Computation, n int) {
		t.Helper()
		args := randomArgs(c, n, rng)
		kept := make([][]*tensor.Tensor, len(args))
		for i, set := range args {
			for _, a := range set {
				kept[i] = append(kept[i], a.Clone())
			}
		}
		want, err := sim.InterpretAll(c, n, args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		err = sim.CheckOutputs(c, n, args, func(in *hlo.Instruction, got []*tensor.Tensor) error {
			for d, v := range got {
				if !v.Equal(want[in][d]) {
					return fmt.Errorf("%s on device %d differs from the value InterpretAll kept alive", in.Name, d)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, set := range args {
			for d, a := range set {
				if !a.Equal(kept[i][d]) {
					t.Fatalf("%s: argument %d on device %d changed", name, i, d)
				}
			}
		}
	}
	for _, p := range progs {
		if p.Long() && corpus.RaceEnabled {
			continue
		}
		check(p.Name, p.Comp, p.Devices)
		if strings.HasPrefix(p.Name, "golden/") {
			continue // already decomposed
		}
		if _, err := core.Apply(p.Comp, opts); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		check(p.Name+"/overlap", p.Comp, p.Devices)
	}
}

// TestInterpretAllocBudget pins what one interpretation of the
// benchmark's golden site allocates: its live set, not every value it
// computes. Blocking, that is the [16 8192] gathered operand (1 MiB
// across the group, which shares it) and the four [16 256] results;
// decomposed, the shards in flight around the ring and the partial
// results. Keeping every value alive, the decomposed form allocated
// 3,858 KiB a run.
func TestInterpretAllocBudget(t *testing.T) {
	if corpus.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	for _, tc := range []struct {
		name     string
		pipeline *core.Options
		budget   float64 // KiB
	}{{"blocking", nil, 1300}, {"decomposed", &opts, 2800}} {
		t.Run(tc.name, func(t *testing.T) {
			const devices, m, k, n = 4, 4, 8192, 256
			c := hlo.NewComputation("site")
			a := c.Parameter(0, "a", []int{m, k})
			w := c.Parameter(1, "w", []int{n, k})
			c.Einsum("mk,nk->mn", c.AllGather(a, 0, topology.NewRing(devices).AxisGroups(0)), w)
			if tc.pipeline != nil {
				if _, err := core.Apply(c, *tc.pipeline); err != nil {
					t.Fatal(err)
				}
			}
			args := randomArgs(c, devices, rand.New(rand.NewSource(1)))
			run := func() {
				if _, err := sim.Interpret(c, devices, args); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				run()
			}
			const runs = 10
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			goruntime.ReadMemStats(&after)
			kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
			t.Logf("per run: %.1f KiB", kib)
			if kib > tc.budget {
				t.Fatalf("one %s interpretation allocates %.1f KiB, budget %.0f KiB", tc.name, kib, tc.budget)
			}
		})
	}
}
