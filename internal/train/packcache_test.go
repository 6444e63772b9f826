package train

import (
	"testing"

	"overlap/internal/core"
	"overlap/internal/machine"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// TestPackCacheKeysOnlyArguments pins what training steps may leave in
// the kernel engine's process-wide pack caches. Each cached pack keeps
// its source tensor reachable, so an intermediate cached there outlives
// its run by up to 64 evictions per plan side — which, before the
// runtime's buffers came from an arena the cache ignores, held 135 MB
// of finished steps' activations. After five steps of a two-layer
// megatron program every key the steps added must be a tensor some step
// was given as an argument — in practice the data: the weights an
// earlier step returned are arena buffers too, so the cache never keys
// on them either (TestMegatronStepAllocBudget pins that the key count
// stops growing).
func TestPackCacheKeysOnlyArguments(t *testing.T) {
	prog, err := Build(Config{Devices: 4, Layers: 2, Model: 8, Hidden: 16, Tokens: 16, Strategy: StrategyMegatron})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	opts.RematerializeGathers = true
	if _, err := core.Apply(prog.Comp, opts); err != nil {
		t.Fatal(err)
	}
	args, err := Args(prog, 3, 1.0/1024)
	if err != nil {
		t.Fatal(err)
	}

	before := map[*tensor.Tensor]bool{}
	for _, k := range tensor.PackCacheTensors() {
		before[k] = true
	}
	given := map[*tensor.Tensor]bool{}
	for step := 0; step < 5; step++ {
		for _, set := range args {
			for _, a := range set {
				given[a] = true
			}
		}
		res, err := runtime.Run(prog.Comp, prog.Config.Devices, args, runtime.Options{})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i := 0; i < prog.Config.NumWeights(); i++ {
			args[ParamWeight0+i] = res.All[prog.RootWeight(i)]
		}
	}
	added, stray := 0, 0
	for _, k := range tensor.PackCacheTensors() {
		if before[k] {
			continue
		}
		added++
		if !given[k] {
			stray++
		}
	}
	if added == 0 {
		t.Fatal("five training steps cached no packs at all: the test no longer exercises the cache")
	}
	if stray > 0 {
		t.Fatalf("%d of the %d tensors the steps left keyed in pack caches were never a run argument", stray, added)
	}
}
