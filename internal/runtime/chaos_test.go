package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// chaosModel is one miniature workload prepared for the soak: the
// decomposed program, its arguments, the interpreter's reference
// outputs, the directed fabric edges with their delivery counts, and
// the per-device instruction count — everything a randomized fault
// needs to stay within range so it is guaranteed to fire.
type chaosModel struct {
	name    string
	comp    *hlo.Computation
	args    [][]*tensor.Tensor
	ref     []*tensor.Tensor
	edges   [][2]int
	parcels map[[2]int]int
	instrs  int
	n       int
}

func buildChaosModels(t *testing.T, n int) []*chaosModel {
	t.Helper()
	spec := machine.TPUv4()
	var out []*chaosModel
	for _, name := range []string{"GPT_32B", "GPT_128B", "GLaM_1T"} {
		cfg, err := models.ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mini, err := models.Miniature(cfg, n, 2)
		if err != nil {
			t.Fatalf("%s miniature: %v", name, err)
		}
		c, err := models.BuildLayerStep(mini)
		if err != nil {
			t.Fatalf("%s build: %v", name, err)
		}
		opts := core.DefaultOptions(spec)
		opts.UseCostModel = false // miniature shapes would not pass the full-size gate
		if _, err := core.Apply(c, opts); err != nil {
			t.Fatalf("%s apply: %v", name, err)
		}

		rng := rand.New(rand.NewSource(42))
		params := c.Parameters()
		args := make([][]*tensor.Tensor, len(params))
		for i, p := range params {
			args[i] = []*tensor.Tensor{tensor.Rand(rng, p.Shape...)}
		}
		ref, err := sim.Interpret(c, n, args)
		if err != nil {
			t.Fatalf("%s interpret: %v", name, err)
		}

		m := &chaosModel{name: name, comp: c, args: args, ref: ref, parcels: map[[2]int]int{}, n: n}
		countStarts := func(in *hlo.Instruction, mult int) {
			if in.Op != hlo.OpCollectivePermuteStart {
				return
			}
			for _, p := range in.Pairs {
				edge := [2]int{p.Source, p.Target}
				if m.parcels[edge] == 0 {
					m.edges = append(m.edges, edge)
				}
				m.parcels[edge] += mult
			}
		}
		for _, in := range c.Instructions() {
			m.instrs++
			if in.Op == hlo.OpLoop {
				m.instrs += in.TripCount * len(in.Body.Instructions())
				for _, bin := range in.Body.Instructions() {
					countStarts(bin, in.TripCount)
				}
				continue
			}
			countStarts(in, 1)
		}
		if len(m.edges) == 0 {
			t.Fatalf("%s: decomposed program has no async edges to fault", name)
		}
		out = append(out, m)
	}
	return out
}

// TestChaosSoak drives the runtime through randomized, seeded fault
// scenarios across three miniature models and asserts the graceful-
// failure contract on every one of them: a run with a crash, a drop or
// a duplicate terminates within its deadline, the error is a *RunError
// attributing the injected fault to the right device and phase, a run
// whose only fault is a delay — seconds of extra wire in the replay,
// which holds no goroutine — succeeds bit-identical to the interpreter,
// no goroutines leak, and a fault-free run of the same program stays
// bit-identical to the interpreter — never a deadlock, never a wrong
// answer. Scenario generation is deterministic
// per index, so a failure reproduces from its seed.
func TestChaosSoak(t *testing.T) {
	const n = 4
	scenarios := 200
	if testing.Short() {
		scenarios = 24
	}
	// The stall deadline bounds drop scenarios, which must wait it out;
	// immediate faults (crash, dup) and delays, which end the run
	// without one, get a generous tripwire.
	const stallDeadline = 150 * time.Millisecond
	const hardDeadline = 10 * time.Second

	baseline := goruntime.NumGoroutine()
	mods := buildChaosModels(t, n)

	// Fault-free control: each model's concurrent execution must stay
	// bit-identical to the interpreter, on both transports.
	for _, m := range mods {
		for _, tr := range []runtime.TransportKind{runtime.TransportChan, runtime.TransportProc} {
			res, err := runtime.Run(m.comp, m.n, m.args, runtime.Options{Transport: tr})
			if err != nil {
				t.Fatalf("%s fault-free (%s): %v", m.name, tr, err)
			}
			for d := range m.ref {
				if !res.Values[d].Equal(m.ref[d]) {
					t.Fatalf("%s fault-free (%s): device %d diverges from the interpreter", m.name, tr, d)
				}
			}
		}
	}

	kinds := []runtime.FaultKind{runtime.FaultCrash, runtime.FaultDrop, runtime.FaultDuplicate, runtime.FaultDelay}
	for i := 0; i < scenarios; i++ {
		i := i
		m := mods[i%len(mods)]
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		kind := kinds[rng.Intn(len(kinds))]

		var fault runtime.Fault
		deadline := hardDeadline
		switch kind {
		case runtime.FaultCrash:
			fault = runtime.Fault{Kind: kind, Device: rng.Intn(n), K: rng.Intn(m.instrs)}
		case runtime.FaultDrop, runtime.FaultDuplicate:
			edge := m.edges[rng.Intn(len(m.edges))]
			fault = runtime.Fault{Kind: kind, Src: edge[0], Dst: edge[1], K: rng.Intn(m.parcels[edge])}
			if kind == runtime.FaultDrop {
				deadline = stallDeadline
			}
		case runtime.FaultDelay:
			edge := m.edges[rng.Intn(len(m.edges))]
			fault = runtime.Fault{
				Kind: kind, Src: edge[0], Dst: edge[1], K: -1,
				Delay:  5 * time.Second, // far beyond the stall deadline, and never waited for
				Jitter: time.Duration(rng.Intn(100)) * time.Millisecond,
			}
		}

		// Every 8th scenario exercises the process transport, so the
		// soak's graceful-failure contract is pinned on real sockets
		// too without multiplying its wall-clock by process spawns.
		transport := runtime.TransportChan
		if i%8 == 0 {
			transport = runtime.TransportProc
		}

		t.Run(fmt.Sprintf("%03d-%s-%s-%s", i, m.name, kind, transport), func(t *testing.T) {
			plan := &runtime.FaultPlan{Seed: int64(i), Faults: []runtime.Fault{fault}}
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()

			t0 := time.Now()
			res, err := runtime.RunContext(ctx, m.comp, m.n, m.args, runtime.Options{Faults: plan, Transport: transport})
			elapsed := time.Since(t0)

			if elapsed > deadline+3*time.Second {
				t.Fatalf("run took %s to end, deadline was %s", elapsed, deadline)
			}
			if kind == runtime.FaultDelay {
				if err != nil {
					t.Fatalf("injected %s: %v, want the delayed run to succeed", fault, err)
				}
				for d := range m.ref {
					if !res.Values[d].Equal(m.ref[d]) {
						t.Fatalf("injected %s: device %d diverges from the interpreter", fault, d)
					}
				}
				return
			}
			if err == nil {
				t.Fatalf("injected %s but the run succeeded (%v)", fault, res.Breakdown)
			}
			var re *runtime.RunError
			if !errors.As(err, &re) {
				t.Fatalf("error %v is not a *RunError", err)
			}
			if re.Fault != fault.String() {
				t.Fatalf("error %v does not carry the injected fault %q", re, fault)
			}
			switch kind {
			case runtime.FaultCrash:
				if !errors.Is(err, runtime.ErrInjectedCrash) {
					t.Fatalf("crash scenario returned %v", err)
				}
				if re.Device != fault.Device || re.Phase != runtime.PhaseCompute {
					t.Fatalf("crash attributed to device %d phase %s, want device %d phase compute", re.Device, re.Phase, fault.Device)
				}
			case runtime.FaultDuplicate:
				if !errors.Is(err, runtime.ErrDuplicateDelivery) {
					t.Fatalf("dup scenario returned %v", err)
				}
				if re.Device != fault.Dst || re.Phase != runtime.PhaseReceive {
					t.Fatalf("dup attributed to device %d phase %s, want device %d phase receive", re.Device, re.Phase, fault.Dst)
				}
			case runtime.FaultDrop:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("stall scenario returned %v, want deadline", err)
				}
				if re.Device != fault.Dst || re.Phase != runtime.PhaseReceive {
					t.Fatalf("stall attributed to device %d phase %s, want device %d phase receive", re.Device, re.Phase, fault.Dst)
				}
			}
		})
	}

	// Every Run returns only after its device goroutines and its
	// transport's have joined; the process-level count must come back to the baseline
	// (with slack for runtime bookkeeping goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if goruntime.NumGoroutine() <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after the soak", baseline, goruntime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
