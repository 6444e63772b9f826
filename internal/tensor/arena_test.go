package tensor_test

import (
	"math/rand"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// TestStepsLeaveNoPackOnArenaBuffers pins what steps may leave behind
// in the kernel engine. A pack lives on the tensor it was packed from,
// and an executor's buffers — an intermediate, and from the second step
// on the weight, the previous step's output — are free-list tensors:
// they carry packs while a step reads them, and Release takes the packs
// off again. The step's einsums read the weight in a layout the kernels
// cannot read in place (the contraction label between two free labels),
// so every read packs. After five steps, with every result released,
// the free lists hold the steps' buffers and not one pack.
func TestStepsLeaveNoPackOnArenaBuffers(t *testing.T) {
	const devices = 2
	c := hlo.NewComputation("steps")
	x := c.Parameter(0, "x", []int{16, 4})    // [e, d]
	w := c.Parameter(1, "w", []int{3, 16, 5}) // [h, e, t]
	y := c.Einsum("ed,het->dht", x, w)
	u := c.Add(w, w) // an intermediate, packed at its last use
	z := c.Einsum("ed,het->dht", x, u)
	next := c.Add(w, u)
	c.Tuple(c.Add(y, z), next)

	rng := rand.New(rand.NewSource(3))
	args := [][]*tensor.Tensor{{tensor.Rand(rng, 16, 4)}, {tensor.Rand(rng, 3, 16, 5)}}
	misses := obs.Default().Counter("overlap_kernel_pack_misses_total", "")
	misses0 := misses.Value()
	var prev *runtime.Result
	for step := 0; step < 5; step++ {
		res, err := runtime.Run(c, devices, args, runtime.Options{})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		args[1] = res.All[next]
		if prev != nil {
			prev.Release()
		}
		prev = res
	}
	prev.Release()
	if misses.Value() == misses0 {
		t.Fatal("five steps packed nothing at all: the test no longer exercises packs")
	}
	tensors, packs := tensor.FreeListPacks()
	if tensors == 0 {
		t.Fatal("the steps left no buffer in the free lists: the test no longer looks at arena buffers")
	}
	if packs != 0 {
		t.Fatalf("%d packs are still attached to the %d buffers the steps released", packs, tensors)
	}
}
