package runtime_test

import (
	"math/rand"
	"testing"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// stepCase builds the AllGather/einsum site the step comparison runs:
// shards big enough that partial einsums take measurable CPU time, wire
// scaled so a transfer dwarfs one device's compute — the regime where
// hiding communication behind computation pays.
func stepCase(n int) (build func() *hlo.Computation, args [][]*tensor.Tensor) {
	const m, k, nn = 24, 64, 64 // per-shard sizes
	groups := topology.NewRing(n).AxisGroups(0)
	build = func() *hlo.Computation {
		c := hlo.NewComputation("site")
		a := c.Parameter(0, "a", []int{m, k})
		b := c.Parameter(1, "b", []int{k, nn})
		full := c.AllGather(a, 0, groups)
		c.Einsum("mk,kn->mn", full, b)
		return c
	}
	rng := rand.New(rand.NewSource(17))
	shards := make([]*tensor.Tensor, n)
	for d := range shards {
		shards[d] = tensor.Rand(rng, m, k)
	}
	args = [][]*tensor.Tensor{shards, {tensor.Rand(rng, k, nn)}}
	return build, args
}

// stepOptions scales the modeled ~1µs shard transfer into ~30ms of
// wire in the replay: long enough that noise in the measured compute,
// and the race detector's inflation of it, cannot blur the
// rolled-vs-decomposed gap.
func stepOptions() runtime.Options {
	return runtime.Options{Spec: machine.TPUv4(), TimeScale: 30000}
}

func runStep(t testing.TB, build func() *hlo.Computation, args [][]*tensor.Tensor, n int, opts core.Options) *runtime.Result {
	c := build()
	report, err := core.Apply(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.SitesDecomposed == 0 {
		t.Fatal("pipeline decomposed nothing")
	}
	res, err := runtime.Run(c, n, args, stepOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func rolledOptions() core.Options {
	return core.Options{Spec: machine.TPUv4(), Knobs: core.Knobs{Rolled: true, UseCostModel: false, Scheduler: core.SchedulerNone}}
}

func decomposedOptions() core.Options {
	return core.Options{
		Spec: machine.TPUv4(),
		Knobs: core.Knobs{
			UseCostModel:          false,
			Scheduler:             core.SchedulerBottomUp,
			FuseAddIntoEinsum:     true,
			OverlapFriendlyFusion: true,
		},
	}
}

// TestDecomposedBeatsRolledReplayedStep is the decomposition's
// acceptance check on executed costs rather than the model's: on 4
// goroutine devices, the replayed step — measured compute per local op,
// modeled wire scaled by the TimeScale — of the decomposed,
// bottom-up-scheduled program must be materially shorter than the
// rolled blocking loop's, because its transfers ride the links while
// the partial einsums run. It reads no wall clock but each kernel's
// duration. Both runs compute identical tensors (cross-checked against
// the interpreter).
func TestDecomposedBeatsRolledReplayedStep(t *testing.T) {
	const n, repeats = 4, 2
	build, args := stepCase(n)

	ref, err := sim.Interpret(build(), n, args)
	if err != nil {
		t.Fatal(err)
	}

	rolled, decomposed := 0.0, 0.0
	for r := 0; r < repeats; r++ {
		rr := runStep(t, build, args, n, rolledOptions())
		dr := runStep(t, build, args, n, decomposedOptions())
		for d := 0; d < n; d++ {
			if !rr.Values[d].AllClose(ref[d], 1e-9) || !dr.Values[d].AllClose(ref[d], 1e-9) {
				t.Fatalf("the two programs diverge from the baseline on device %d", d)
			}
		}
		if r == 0 || rr.Breakdown.StepTime < rolled {
			rolled = rr.Breakdown.StepTime
		}
		if r == 0 || dr.Breakdown.StepTime < decomposed {
			decomposed = dr.Breakdown.StepTime
		}
	}
	t.Logf("rolled %.1fms, decomposed %.1fms (%.2fx)",
		rolled*1e3, decomposed*1e3, rolled/decomposed)
	if decomposed >= rolled*0.95 {
		t.Fatalf("decomposed (%.1fms) did not beat rolled (%.1fms) by 5%%",
			decomposed*1e3, rolled*1e3)
	}
}
