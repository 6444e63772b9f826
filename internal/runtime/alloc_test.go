package runtime_test

import (
	"math/rand"
	goruntime "runtime"
	"testing"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// TestSiteRunAllocBudget pins what one run of the benchmark's golden
// site may allocate once the arena is warm: the four results it hands
// back (32 KiB each) plus engine bookkeeping. Before the tape every run
// cloned each received shard and each updated result and walked slices
// one heap-allocated index at a time: 4147 KiB in 17,099 allocations.
func TestSiteRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const devices, m, k, n = 4, 4, 8192, 256
	c := hlo.NewComputation("site")
	a := c.Parameter(0, "a", []int{m, k})
	w := c.Parameter(1, "w", []int{n, k})
	c.Einsum("mk,nk->mn", c.AllGather(a, 0, topology.NewRing(devices).AxisGroups(0)), w)
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	if _, err := core.Apply(c, opts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shards := make([]*tensor.Tensor, devices)
	for d := range shards {
		shards[d] = tensor.Rand(rng, m, k)
	}
	args := [][]*tensor.Tensor{shards, {tensor.Rand(rng, n, k)}}
	run := func() {
		if _, err := runtime.Run(c, devices, args, runtime.Options{Spec: machine.TPUv4()}); err != nil {
			t.Fatal(err)
		}
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
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
	mallocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("per run: %.1f KiB in %.0f allocations", kib, mallocs)
	if kib > 600 || mallocs > 1500 {
		t.Fatalf("one warm site run allocates %.1f KiB in %.0f allocations, budget 600 KiB / 1500", kib, mallocs)
	}
}
