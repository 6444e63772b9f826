package runtime_test

import (
	"context"
	"math/rand"
	goruntime "runtime"
	"testing"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// benchSite builds the benchmark's golden site — an AllGather feeding
// an einsum, 4 devices, m4 k8192 n256 — through the given pipeline (nil
// leaves the blocking collective in place) with its arguments.
func benchSite(t *testing.T, pipeline *core.Options) (*hlo.Computation, [][]*tensor.Tensor) {
	t.Helper()
	const devices, m, k, n = 4, 4, 8192, 256
	c := hlo.NewComputation("site")
	a := c.Parameter(0, "a", []int{m, k})
	w := c.Parameter(1, "w", []int{n, k})
	c.Einsum("mk,nk->mn", c.AllGather(a, 0, topology.NewRing(devices).AxisGroups(0)), w)
	if pipeline != nil {
		if _, err := core.Apply(c, *pipeline); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	shards := make([]*tensor.Tensor, devices)
	for d := range shards {
		shards[d] = tensor.Rand(rng, m, k)
	}
	return c, [][]*tensor.Tensor{shards, {tensor.Rand(rng, n, k)}}
}

// warmRunAllocs reports what one call of run allocates once the arena
// is warm, as KiB and allocation count averaged over twenty calls.
func warmRunAllocs(t *testing.T, run func()) (kib, mallocs float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	for i := 0; i < 3; i++ {
		run()
	}
	const runs = 20
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	goruntime.ReadMemStats(&after)
	kib = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
	mallocs = float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("per run: %.1f KiB in %.0f allocations", kib, mallocs)
	return kib, mallocs
}

// TestSiteRunAllocBudget pins what one run of the benchmark's golden
// site may allocate once the arena is warm: the four results it hands
// back (32 KiB each; the benchmark never releases a result, and neither
// does this test) plus engine bookkeeping. Before the tape every run
// cloned each received shard and each updated result and walked slices
// one heap-allocated index at a time: 4147 KiB in 17,099 allocations.
func TestSiteRunAllocBudget(t *testing.T) {
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	c, args := benchSite(t, &opts)
	kib, mallocs := warmRunAllocs(t, func() {
		if _, err := runtime.Run(c, 4, args, runtime.Options{Spec: machine.TPUv4()}); err != nil {
			t.Fatal(err)
		}
	})
	if kib > 220 || mallocs > 1500 {
		t.Fatalf("one warm site run allocates %.1f KiB in %.0f allocations, budget 220 KiB / 1500", kib, mallocs)
	}
}

// TestBlockingCollectiveAllocBudget pins the same site in the two forms
// that keep a blocking collective, each run releasing its result. The
// untransformed baseline gathers [4 8192] shards into one [16 8192]
// operand per device: when the rendezvous returned a fresh tensor that
// was 1 MiB a run for the gathered operand alone. The rolled form runs
// a blocking collective-permute every trip of its loop, which cloned a
// 256 KiB shard per target per trip. With each member's share written
// into an arena buffer, and the outputs handed back by Release, a warm
// run allocates nothing tensor-sized.
func TestBlockingCollectiveAllocBudget(t *testing.T) {
	rolled := core.Options{Spec: machine.TPUv4(), Knobs: core.Knobs{Rolled: true, Scheduler: core.SchedulerNone}}
	for _, tc := range []struct {
		name     string
		pipeline *core.Options
	}{{"baseline", nil}, {"rolled", &rolled}} {
		t.Run(tc.name, func(t *testing.T) {
			c, args := benchSite(t, tc.pipeline)
			kib, _ := warmRunAllocs(t, func() {
				res, err := runtime.Run(c, 4, args, runtime.Options{Spec: machine.TPUv4()})
				if err != nil {
					t.Fatal(err)
				}
				res.Release()
			})
			if kib > 200 {
				t.Fatalf("one warm %s site run allocates %.1f KiB, budget 200 KiB", tc.name, kib)
			}
		})
	}
}

// TestCheckedRunAllocBudget pins a warm checked run of the golden site —
// Run on a held Executable, CheckInterpreter, Release — the shape of
// every checked served request and measured tuner candidate. The
// interpreter borrows its buffers from the arena the run just released
// into and hands them back, so what is left is the run's bookkeeping and
// the interpreter's results of sizes the lists lack (blocking, the four
// [16 256] outputs, which the unreleased result still holds). With the
// interpreter's lists private, the check alone allocated its live set:
// 1,156 KiB a checked run blocking and 2,450 decomposed.
func TestCheckedRunAllocBudget(t *testing.T) {
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	for _, tc := range []struct {
		name     string
		pipeline *core.Options
		budget   float64 // KiB
	}{{"blocking", nil, 200}, {"decomposed", &opts, 400}} {
		t.Run(tc.name, func(t *testing.T) {
			c, args := benchSite(t, tc.pipeline)
			x, err := runtime.Compile(c, 4, machine.TPUv4())
			if err != nil {
				t.Fatal(err)
			}
			kib, _ := warmRunAllocs(t, func() {
				res, err := x.Run(context.Background(), args, runtime.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := runtime.CheckInterpreter(c, 4, args, res); err != nil {
					t.Fatal(err)
				}
				res.Release()
			})
			if kib > tc.budget {
				t.Fatalf("one warm checked %s site run allocates %.1f KiB, budget %.0f KiB", tc.name, kib, tc.budget)
			}
		})
	}
}

// TestWarmRunTakesNoFreshScratchHoweverScheduled pins what makes a warm
// run's scratch allocations repeat: each device keeps its kernels'
// scratch in its own stash for the run, so what a run takes from the
// shared scratch classes follows from the program, not from how many
// devices were inside a kernel at once. Warmed on one P, where the
// kernels do not fan out and no two devices hold scratch at once, runs
// on four Ps, where a device parks mid-kernel while its fan-out
// finishes and the others enter theirs, take no fresh scratch. With
// one set of classes shared by the devices they took a buffer each
// time a device more than ever before held one.
func TestWarmRunTakesNoFreshScratchHoweverScheduled(t *testing.T) {
	const devices, m, k, n = 4, 32, 512, 128
	c := hlo.NewComputation("scratch")
	a := c.Parameter(0, "a", []int{m, k})
	b := c.Parameter(1, "b", []int{k, n})
	c.Einsum("mk,kn->nm", a, b) // a transposed output: the GEMM runs into scratch
	rng := rand.New(rand.NewSource(5))
	shards := make([]*tensor.Tensor, devices)
	for d := range shards {
		shards[d] = tensor.Rand(rng, m, k)
	}
	args := [][]*tensor.Tensor{shards, {tensor.Rand(rng, k, n)}}
	x, err := runtime.Compile(c, devices, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := x.Run(context.Background(), args, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}

	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	run()
	goruntime.GOMAXPROCS(4)
	fresh := obs.Default().Counter("overlap_kernel_pool_fresh_bytes_total", "")
	before := fresh.Value()
	for i := 0; i < 50; i++ {
		run()
	}
	if got := fresh.Value() - before; got != 0 {
		t.Fatalf("warm runs on four Ps took %.0f fresh scratch bytes", got)
	}
}
