package train

import (
	"context"
	"errors"
	goruntime "runtime"
	"testing"

	"overlap/internal/core"
	"overlap/internal/machine"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// TestMegatronStepAllocBudget pins what one warm training step of the
// benchmark's train_megatron configuration may allocate. A 3-step and
// a 12-step Execute over the same program differ by steps 3…12, so the
// difference of what the two calls allocate, over nine, is one such
// step. When the forward weight gathers returned fresh tensors and the
// outputs were copied out of the arena, that was 8.4 MiB a step; with
// collective results and outputs in arena buffers that Execute releases
// it was 174 KiB, most of it the program being re-validated and
// re-lowered every step. With one Executable per Execute, a step still
// built its engine, fabric and slot tables: about 24 KiB. Running in
// the run context the previous step handed back, it was 7.4 KiB: the
// result's map and slices, the digests' hashers, a formatted step ID,
// a log record formatted for nobody, the metric names Record formatted
// and an einsum's shape slices. Now a step's result reuses the tables
// the step before it released, and what is left is what it keeps — its
// Result, its StepStat's strings — and the closures that start its
// device goroutines. A step packs nothing: the kernels read
// every layout its einsums use in place, and a parallel kernel hands
// its chunks to the workers without allocating.
func TestMegatronStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes the kernel scratch's sync.Pools drop buffers at random")
	}
	prog, report := megatronStep(t)
	warm(t, prog, report)
	short := leastAlloc(t, prog, report, 3)
	long := leastAlloc(t, prog, report, 12)
	perStep := (float64(long) - float64(short)) / 9 / 1024
	t.Logf("steps 3…12: %.1f KiB per step", perStep)
	if perStep > 1 {
		t.Errorf("a warm megatron step allocates %.1f KiB, budget 1 KiB", perStep)
	}
}

// TestWarmExecuteAllocBudget pins what a whole warm one-step Execute
// allocates, its feed included. Args drew every full tensor and then
// copied it into shards, and nothing handed them back: 4.8 MiB a call
// on this configuration. Then Args drew each shard into a free-list
// buffer and Execute returned the feed, so the next call drew the same
// buffers, and what was left, 107 KiB, was mostly the program being
// validated and lowered again. Now the lowering sizes the tape once
// instead of growing it, and what is left, 68 KiB, is that one Compile
// (42 KiB), the run context its first step builds, and the Execute's
// own bookkeeping.
func TestWarmExecuteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes the kernel scratch's sync.Pools drop buffers at random")
	}
	prog, report := megatronStep(t)
	warm(t, prog, report)
	kib := float64(leastAlloc(t, prog, report, 1)) / 1024
	t.Logf("warm one-step Execute: %.1f KiB", kib)
	if kib > 96 {
		t.Errorf("a warm one-step Execute allocates %.1f KiB, budget 96 KiB", kib)
	}
}

// TestDivergedExecuteReturnsItsFeed: a run stopped by a non-finite loss
// still hands its feed back to the free lists. The lists are stacks, so
// a feed released just before Execute is the one Execute draws, and a
// feed Execute released is on top again afterwards: the next Args must
// return exactly the same tensors.
func TestDivergedExecuteReturnsItsFeed(t *testing.T) {
	prog, report := megatronStep(t)
	const seed, lr = 1, 1.0 / 16 // diverges within a few steps at this size
	feed, err := Args(prog, seed, lr)
	if err != nil {
		t.Fatal(err)
	}
	mine := map[*tensor.Tensor]bool{}
	for _, set := range feed {
		for _, x := range set {
			if x.Pooled() {
				mine[x] = true
			}
		}
	}
	runtime.ReleaseArgs(feed)
	_, err = Execute(context.Background(), prog, &Result{Config: prog.Config, Report: report},
		Options{Steps: 12, LR: lr, Seed: seed})
	var div *DivergedError
	if !errors.As(err, &div) {
		t.Fatalf("got %v, want a *DivergedError", err)
	}
	again, err := Args(prog, seed, lr)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.ReleaseArgs(again)
	for p, set := range again {
		for d, x := range set {
			if x.Pooled() && !mine[x] {
				t.Fatalf("parameter %d device %d: Args after a diverged Execute drew a buffer the Execute's feed did not hold; the feed was not handed back", p, d)
			}
			delete(mine, x)
		}
	}
	if len(mine) != 0 {
		t.Fatalf("%d of the feed's buffers did not come back", len(mine))
	}
}

// megatronStep builds the benchmark's train_megatron program under the
// default pipeline.
func megatronStep(t *testing.T) (*Program, core.Report) {
	t.Helper()
	prog, err := Build(Config{Devices: 4, Layers: 2, Model: 128, Hidden: 512, Tokens: 128, Strategy: StrategyMegatron})
	if err != nil {
		t.Fatal(err)
	}
	pipeline := core.DefaultOptions(machine.TPUv4())
	pipeline.UseCostModel = false
	report, err := core.Apply(prog.Comp, pipeline)
	if err != nil {
		t.Fatal(err)
	}
	return prog, report
}

// warm runs 12-step Executes until two in a row allocate the same
// bytes, at most 21 of them. The first calls fill the arena, the einsum
// plans, the kernel scratch and the Go scheduler's per-P lists of
// exited goroutines, which every step's device goroutines start
// from: until the lists hold enough, starting a goroutine
// allocates one.
func warm(t *testing.T, prog *Program, report core.Report) {
	last := execute(t, prog, report, 12)
	for i := 0; i < 20; i++ {
		next := execute(t, prog, report, 12)
		if next == last {
			return
		}
		last = next
	}
}

// leastAlloc is the fewest bytes any of three Execute calls of the
// given length allocated. What a step allocates shows in every call;
// what a kernel scratch buffer costs when it sits in another P's
// sync.Pool slot (or when a collection dropped it) shows in one.
func leastAlloc(t *testing.T, prog *Program, report core.Report, steps int) uint64 {
	least := execute(t, prog, report, steps)
	for i := 1; i < 3; i++ {
		least = min(least, execute(t, prog, report, steps))
	}
	return least
}

// execute runs the given number of steps from the seeded initial
// weights and reports the bytes allocated.
func execute(t *testing.T, prog *Program, report core.Report, steps int) uint64 {
	t.Helper()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, err := Execute(context.Background(), prog, &Result{Config: prog.Config, Report: report},
		Options{Steps: steps, LR: 1.0 / 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
