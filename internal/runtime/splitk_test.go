package runtime_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// TestConcurrentSplitKIsolation runs two programs that differ only in
// their einsum's stamped split-K factor concurrently: each must stay
// bit-identical to sim.Interpret of its own text, and the two must
// differ from each other (the GEMM clears every split-K gate, so the
// factor genuinely reassociates the reduction). The factor lives in
// the instruction, so there is no shared state for the runs to race
// on — which -race confirms.
func TestConcurrentSplitKIsolation(t *testing.T) {
	const m, k, n = 32, 512, 128
	rng := rand.New(rand.NewSource(23))
	args := [][]*tensor.Tensor{{tensor.Rand(rng, m, k)}, {tensor.Rand(rng, k, n)}}

	progs := map[int]*hlo.Computation{}
	want := map[int]*tensor.Tensor{}
	for _, factor := range []int{0, 4} {
		c := hlo.NewComputation("splitk")
		a := c.Parameter(0, "a", []int{m, k})
		b := c.Parameter(1, "b", []int{k, n})
		c.Einsum("mk,kn->mn", a, b).SplitK = factor
		vals, err := sim.Interpret(c, 1, args)
		if err != nil {
			t.Fatal(err)
		}
		progs[factor], want[factor] = c, vals[0]
	}
	if want[0].Equal(want[4]) {
		t.Fatal("split-K 4 did not change the reduction bit pattern; the shapes no longer clear the gates")
	}

	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, len(progs)) // one send per goroutine at most
	for factor, c := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := runtime.Run(c, 1, args, runtime.Options{})
				if err != nil {
					errs <- err
					return
				}
				if !res.Values[0].Equal(want[factor]) {
					errs <- fmt.Errorf("split-K %d iteration %d: concurrent run diverges bitwise from the interpreter by %v",
						factor, i, res.Values[0].MaxDifference(want[factor]))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
