package autotune_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"overlap/internal/autotune"
	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// skinnySite builds a decomposition site whose partial einsums are
// skinny — 4 output rows per shard against a 512-long contraction —
// so core.EnumerateOptions enumerates kernel split-K factors and the
// runtime's split-K gate actually fires during stage 2.
func skinnySite(n int, seed int64) (*hlo.Computation, [][]*tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	groups := topology.NewRing(n).AxisGroups(0)
	const m, k, nn = 4, 512, 32
	c := hlo.NewComputation("skinny-site")
	a := c.Parameter(0, "a", []int{m, k})
	b := c.Parameter(1, "b", []int{k, nn})
	full := c.AllGather(a, 0, groups)
	c.Einsum("mk,kn->mn", full, b)
	perDevice := func(shape []int) []*tensor.Tensor {
		out := make([]*tensor.Tensor, n)
		for d := range out {
			out[d] = tensor.Rand(rng, shape...)
		}
		return out
	}
	return c, [][]*tensor.Tensor{perDevice([]int{m, k}), perDevice([]int{k, nn})}
}

// TestKeyIgnoresSplitK pins the cache-identity contract: the split-K
// factor of a plan lives in the plan's own program text, so neither
// applying a split-K winner nor the tensor-level bare-call default may
// move the key of the untransformed program — a key that drifts
// recompiles plans that are already cached.
func TestKeyIgnoresSplitK(t *testing.T) {
	defer tensor.SetKernelSplitK(0)
	c, _ := skinnySite(4, 40)
	spec := machine.TPUv4()
	want := autotune.Key(c, spec, 4)

	best := core.DefaultOptions(spec).Knobs
	best.UseCostModel = false
	best.KernelSplitK = 2
	res := autotune.ResultOf(&autotune.Plan{Knobs: best}, spec)
	if _, err := res.ApplyBest(c.Clone()); err != nil {
		t.Fatal(err)
	}
	if got := tensor.KernelSplitK(); got != 0 {
		t.Fatalf("ApplyBest wrote package-level state: tensor.KernelSplitK() = %d", got)
	}
	if got := autotune.Key(c, spec, 4); got != want {
		t.Fatalf("Key moved across ApplyBest: %s -> %s", want, got)
	}
	for _, f := range []int{0, 2, 4} {
		tensor.SetKernelSplitK(f)
		if got := autotune.Key(c, spec, 4); got != want {
			t.Fatalf("Key reads the tensor-level factor %d: %s -> %s", f, want, got)
		}
	}
}

// TestTuneSearchesSplitK runs the search on a skinny program and
// verifies the factor is a real dimension of it: split-K candidates
// are enumerated as distinct (not deduplicated away despite identical
// program text), at least one executes — bitwise cross-checked against
// the interpreter — and ApplyBest stamps the winning factor on every
// einsum of the program it rewrites.
func TestTuneSearchesSplitK(t *testing.T) {
	const n = 4
	c, args := skinnySite(n, 41)
	opts := autotune.Options{
		Spec:      machine.TPUv4(),
		TopK:      4,
		TimeScale: 50,
		CachePath: filepath.Join(t.TempDir(), "plans"),
	}
	res, err := autotune.Tune(c, n, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*autotune.Candidate{}
	for i := range res.Candidates {
		byName[res.Candidates[i].Name] = &res.Candidates[i]
	}
	enumerated, executed := 0, 0
	for _, cand := range res.Candidates {
		if cand.Baseline || cand.Opts.KernelSplitK == 0 {
			continue
		}
		enumerated++
		if cand.DuplicateOf != "" {
			// Dedup within one factor is fine (same text, same bytes);
			// dedup across factors would erase the search dimension.
			canon := byName[cand.DuplicateOf]
			if canon == nil || canon.Opts.KernelSplitK != cand.Opts.KernelSplitK {
				t.Fatalf("split-K candidate %s was deduplicated into %s despite a distinct factor",
					cand.Name, cand.DuplicateOf)
			}
			continue
		}
		if cand.Executed {
			executed++
			if !cand.Checked {
				t.Fatalf("split-K candidate %s executed without the interpreter cross-check", cand.Name)
			}
		}
	}
	if enumerated == 0 {
		t.Fatal("no split-K candidates enumerated for a skinny program")
	}
	if executed == 0 {
		t.Fatal("no split-K candidate reached stage 2 despite tying the best predicted time")
	}

	clone := c.Clone()
	if _, err := res.ApplyBest(clone); err != nil {
		t.Fatal(err)
	}
	if got := tensor.KernelSplitK(); got != 0 {
		t.Fatalf("ApplyBest wrote package-level state: tensor.KernelSplitK() = %d", got)
	}
	want := res.Plan.Knobs.KernelSplitK
	if res.Plan.Baseline {
		want = 0
	}
	clone.Walk(func(in *hlo.Instruction) {
		if in.Op == hlo.OpEinsum && in.SplitK != want {
			t.Errorf("ApplyBest left %s stamped %d, winner says %d", in.Name, in.SplitK, want)
		}
	})
}
