package tensor_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// TestInterpreterConservesTheFreeLists: the interpreter borrows from the
// arena's free lists and hands back exactly what it borrowed, and no
// collective kernel draws a temporary from them, so across
// runtime.CheckInterpreter, sim.Interpret and sim.InterpretAll the lists
// hold the same number of buffers of every size before and after, from
// the first call on. The check has to borrow at all: while compare runs,
// the lists the run released into hold fewer.
func TestInterpreterConservesTheFreeLists(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	rng := rand.New(rand.NewSource(79))
	conserved := func(label string, call func() error) {
		t.Helper()
		before := tensor.FreeCounts()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if after := tensor.FreeCounts(); !maps.Equal(before, after) {
			t.Fatalf("%s: the free lists held %v buffers by size before, %v after", label, before, after)
		}
	}
	check := func(name string, c *hlo.Computation, n int) {
		t.Helper()
		x, err := runtime.Compile(c, n, machine.Spec{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		args := argsFor(c, n, rng)
		res, err := x.Run(context.Background(), args, runtime.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer res.Release()
		conserved(name+": CheckInterpreter", func() error { return runtime.CheckInterpreter(c, n, args, res) })
		before, borrowed := tensor.FreeCounts(), false
		err = sim.CheckOutputs(c, n, args, func(*hlo.Instruction, []*tensor.Tensor) error {
			borrowed = borrowed || !maps.Equal(before, tensor.FreeCounts())
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !borrowed {
			t.Fatalf("%s: the check borrowed nothing from the lists the run released into", name)
		}
		// What Interpret and InterpretAll return is the caller's, never a
		// buffer handed back to the lists.
		conserved(name+": Interpret", func() error {
			vals, err := sim.Interpret(c, n, args)
			return notBorrowed(vals, err)
		})
		conserved(name+": InterpretAll", func() error {
			all, err := sim.InterpretAll(c, n, args)
			for _, vals := range all {
				if err == nil {
					err = notBorrowed(vals, nil)
				}
			}
			return err
		})
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
		check(p.Name+"/default", p.Comp, p.Devices)
	}
}

// notBorrowed passes err on, or fails when a value sits on a free list.
func notBorrowed(vals []*tensor.Tensor, err error) error {
	for d, v := range vals {
		if err == nil && tensor.OnFreeList(v) {
			err = fmt.Errorf("the value on device %d is a buffer of the free lists", d)
		}
	}
	return err
}

// argsFor draws one tensor per device for every parameter.
func argsFor(c *hlo.Computation, n int, rng *rand.Rand) [][]*tensor.Tensor {
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
