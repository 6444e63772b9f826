package train

import (
	"context"
	goruntime "runtime"
	"testing"

	"overlap/internal/core"
	"overlap/internal/machine"
)

// TestMegatronStepAllocBudget pins what one warm training step of the
// benchmark's train_megatron configuration may allocate. A 3-step and
// a 12-step Execute over the same program differ by steps 3…12, so the
// difference of what the two calls allocate, over nine, is one such
// step. When the forward weight gathers returned fresh tensors and the
// outputs were copied out of the arena, that was 8.4 MiB a step; with
// collective results and outputs in arena buffers that Execute releases
// it was 174 KiB, most of it the program being re-validated and
// re-lowered every step. With one Executable per Execute, what is left
// is a step's engine bookkeeping and the digests' blocks. A step packs
// nothing: the kernels read every layout its einsums use in place.
func TestMegatronStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
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
	// execute runs the given number of steps from the seeded initial
	// weights and reports the bytes allocated.
	execute := func(steps int) uint64 {
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
	execute(3) // warm the arena and the einsum plans
	short := execute(3)
	long := execute(12)
	perStep := (float64(long) - float64(short)) / 9 / 1024
	t.Logf("steps 3…12: %.1f KiB per step", perStep)
	if perStep > 200 {
		t.Errorf("a warm megatron step allocates %.1f KiB, budget 200 KiB", perStep)
	}
}
