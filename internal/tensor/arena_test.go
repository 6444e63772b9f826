package tensor_test

import (
	"testing"

	"overlap/internal/core"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
	"overlap/internal/train"
)

// TestStepsLeaveNoPackOnArenaBuffers pins what training steps may leave
// behind in the kernel engine. A pack lives on the tensor it was packed
// from, and an executor's buffers — which from the second step on
// include the weights, the previous step's outputs — are free-list
// tensors: they carry packs while a step reads them (the backward pass
// finds the forward pass's), and Release takes the packs off again.
// After five steps of a two-layer megatron program, with every result
// released, the free lists hold the steps' buffers and not one pack.
func TestStepsLeaveNoPackOnArenaBuffers(t *testing.T) {
	prog, err := train.Build(train.Config{Devices: 4, Layers: 2, Model: 8, Hidden: 16, Tokens: 16, Strategy: train.StrategyMegatron})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	opts.RematerializeGathers = true
	if _, err := core.Apply(prog.Comp, opts); err != nil {
		t.Fatal(err)
	}
	args, err := train.Args(prog, 3, 1.0/1024)
	if err != nil {
		t.Fatal(err)
	}
	misses := obs.Default().Counter("overlap_kernel_pack_misses_total", "")
	misses0 := misses.Value()
	var prev *runtime.Result
	for step := 0; step < 5; step++ {
		res, err := runtime.Run(prog.Comp, prog.Config.Devices, args, runtime.Options{})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i := 0; i < prog.Config.NumWeights(); i++ {
			args[train.ParamWeight0+i] = res.All[prog.RootWeight(i)]
		}
		if prev != nil {
			prev.Release()
		}
		prev = res
	}
	prev.Release()
	if misses.Value() == misses0 {
		t.Fatal("five training steps packed nothing at all: the test no longer exercises packs")
	}
	tensors, packs := tensor.FreeListPacks()
	if tensors == 0 {
		t.Fatal("the steps left no buffer in the free lists: the test no longer looks at arena buffers")
	}
	if packs != 0 {
		t.Fatalf("%d packs are still attached to the %d buffers the steps released", packs, tensors)
	}
}
