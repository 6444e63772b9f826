package runtime

import (
	"context"
	"math/rand"
	"testing"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// packSpec is a decomposed site whose weight the kernels cannot read
// in place: the weight's contraction label e sits between its free
// labels h and t, so every partial einsum needs it packed. (The
// gathered lhs, [e, d], is read in place.)
const packSpec = "ed,het->dht"

// TestDecomposedRunReusesPacks verifies the pack cache end to end: a
// decomposed loop whose weight must be permute-packed for every
// partial einsum packs it once and serves every later iteration —
// across loop iterations, devices sharing the replicated tensor, and
// whole runs — from the tensor's pack, while staying bit-identical to
// the lockstep interpreter.
func TestDecomposedRunReusesPacks(t *testing.T) {
	const n = 4
	c := hlo.NewComputation("packs")
	groups := topology.NewRing(n).AxisGroups(0)
	a := c.Parameter(0, "a", []int{16, 8})
	w := c.Parameter(1, "w", []int{2, 16, 4})
	full := c.AllGather(a, 1, groups)
	c.Einsum(packSpec, full, w)
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	if _, err := core.Apply(c, opts); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	shards := make([]*tensor.Tensor, n)
	for d := range shards {
		shards[d] = tensor.Rand(rng, 16, 8)
	}
	args := [][]*tensor.Tensor{shards, {tensor.Rand(rng, 2, 16, 4)}}

	hits := obs.Default().Counter("overlap_kernel_pack_hits_total", "")
	misses := obs.Default().Counter("overlap_kernel_pack_misses_total", "")

	cold := misses.Value()
	want, err := sim.Interpret(c, n, args)
	if err != nil {
		t.Fatal(err)
	}
	if misses.Value() == cold {
		t.Fatal("the interpreter packed nothing: the test no longer exercises packs")
	}
	hits0, misses0 := hits.Value(), misses.Value()
	res, err := Run(c, n, args, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for d := range want {
		if !res.Values[d].Equal(want[d]) {
			t.Fatalf("device %d diverges from the interpreter with the pack cache on", d)
		}
	}
	// The decomposed loop runs n partial einsums per device against the
	// one replicated weight; all but the first resolve from the cache
	// (the interpreter warm-up above already paid the cold miss).
	if gained := hits.Value() - hits0; gained < n {
		t.Fatalf("decomposed run gained only %g pack hits, want >= %d", gained, n)
	}
	if churn := misses.Value() - misses0; churn > 2 {
		t.Fatalf("decomposed run re-packed %g times; the weight should pack at most once", churn)
	}
}

// TestReplicatedWeightPacksOncePerRun is the cold half: one Executable,
// four device goroutines reaching the same never-packed replicated
// weight at about the same moment. The pack is filled under the
// tensor's lock, so exactly one of them packs it — on every run with a
// new weight, and not at all on a second run with the same one. Under
// -race this is also the witness that the devices' reads of the shared
// pack are ordered after its fill.
func TestReplicatedWeightPacksOncePerRun(t *testing.T) {
	const n = 4
	c := hlo.NewComputation("packs-once")
	groups := topology.NewRing(n).AxisGroups(0)
	a := c.Parameter(0, "a", []int{16, 8})
	w := c.Parameter(1, "w", []int{4, 16, 16})
	c.Einsum(packSpec, c.AllGather(a, 1, groups), w)
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	if _, err := core.Apply(c, opts); err != nil {
		t.Fatal(err)
	}
	x, err := Compile(c, n, machine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	shards := make([]*tensor.Tensor, n)
	for d := range shards {
		shards[d] = tensor.Rand(rng, 16, 8)
	}
	misses := obs.Default().Counter("overlap_kernel_pack_misses_total", "")
	for round := 0; round < 3; round++ {
		args := [][]*tensor.Tensor{shards, {tensor.Rand(rng, 4, 16, 16)}}
		for run, want := range []float64{1, 0} {
			misses0 := misses.Value()
			res, err := x.Run(context.Background(), args, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckInterpreter(c, n, args, res); err != nil {
				t.Fatal(err)
			}
			res.Release()
			// The interpreter check reads the same weight: by then it is packed.
			if got := misses.Value() - misses0; got != want {
				t.Fatalf("weight %d, run %d: %g pack misses, want %g", round, run, got, want)
			}
		}
	}
}
