package grad

import (
	"math/rand"
	"slices"
	"testing"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

func ringGroups(n int) [][]int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return [][]int{g}
}

// lossGraph builds a partitioned forward pass ending in a per-device
// scalar loss: out = einsum(AllGather(x), w); loss = <out, probe>.
// The global loss is the sum of the per-device losses.
func lossGraph(n int) (c *hlo.Computation, x, w, probe, seed, loss *hlo.Instruction) {
	c = hlo.NewComputation("loss")
	x = c.Parameter(0, "x", []int{2, 3})
	w = c.Parameter(1, "w", []int{3, 4})
	probe = c.Parameter(2, "probe", []int{2 * n, 4})
	seed = c.Parameter(3, "seed", nil)
	full := c.AllGather(x, 0, ringGroups(n))
	out := c.Einsum("mk,kn->mn", full, w)
	loss = c.Einsum("mn,mn->", out, probe)
	return
}

// globalLoss interprets the graph and sums the per-device losses.
func globalLoss(t *testing.T, c *hlo.Computation, lossIn *hlo.Instruction, n int, args [][]*tensor.Tensor) float64 {
	t.Helper()
	vals, err := sim.InterpretAll(c, n, args)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range vals[lossIn] {
		sum += v.At()
	}
	return sum
}

// TestGradMatchesFiniteDifferences validates the whole adjoint system —
// einsum transposes and the AllGather→ReduceScatter rule — against
// central finite differences of the global loss.
func TestGradMatchesFiniteDifferences(t *testing.T) {
	const n = 3
	c, x, w, _, seed, loss := lossGraph(n)
	grads, err := Append(c, loss, seed, []*hlo.Instruction{x, w})
	if err != nil {
		t.Fatal(err)
	}
	c.Tuple(grads[x], grads[w])

	rng := rand.New(rand.NewSource(61))
	mkArgs := func() [][]*tensor.Tensor {
		mk := func(shape ...int) []*tensor.Tensor {
			out := make([]*tensor.Tensor, n)
			for d := range out {
				out[d] = tensor.Rand(rng, shape...)
			}
			return out
		}
		return [][]*tensor.Tensor{mk(2, 3), mk(3, 4), mk(2*n, 4), {tensor.Scalar(1)}}
	}
	args := mkArgs()

	vals, err := sim.InterpretAll(c, n, args)
	if err != nil {
		t.Fatal(err)
	}
	gx := vals[grads[x]]
	gw := vals[grads[w]]

	const h = 1e-6
	fd := func(paramIdx, dev, elem int) float64 {
		orig := args[paramIdx][dev].Data()[elem]
		args[paramIdx][dev].Data()[elem] = orig + h
		plus := globalLoss(t, c, loss, n, args)
		args[paramIdx][dev].Data()[elem] = orig - h
		minus := globalLoss(t, c, loss, n, args)
		args[paramIdx][dev].Data()[elem] = orig
		return (plus - minus) / (2 * h)
	}
	for dev := 0; dev < n; dev++ {
		for e := 0; e < 6; e++ {
			want := fd(0, dev, e)
			got := gx[dev].Data()[e]
			if diff := abs(got - want); diff > 1e-4*(1+abs(want)) {
				t.Fatalf("d loss/d x[%d][%d]: grad %v vs fd %v", dev, e, got, want)
			}
		}
		for e := 0; e < 12; e++ {
			want := fd(1, dev, e)
			got := gw[dev].Data()[e]
			if diff := abs(got - want); diff > 1e-4*(1+abs(want)) {
				t.Fatalf("d loss/d w[%d][%d]: grad %v vs fd %v", dev, e, got, want)
			}
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestAllGatherAdjointIsReduceScatter proves the §2.2 claim
// structurally: the backward pass of a gathered-operand einsum contains
// a ReduceScatter on the same axis and groups.
func TestAllGatherAdjointIsReduceScatter(t *testing.T) {
	const n = 4
	c, x, _, _, seed, loss := lossGraph(n)
	grads, err := Append(c, loss, seed, []*hlo.Instruction{x})
	if err != nil {
		t.Fatal(err)
	}
	c.Tuple(grads[x])
	found := false
	for _, in := range c.Instructions() {
		if in.Op == hlo.OpReduceScatter && in.CollectiveAxis == 0 && len(in.Groups[0]) == n {
			found = true
		}
	}
	if !found {
		t.Fatal("backward pass has no ReduceScatter for the forward AllGather")
	}
}

// TestBackwardCollectivesDecompose: the ReduceScatter the autodiff
// produced is itself a decomposition site for the overlap pipeline.
func TestBackwardCollectivesDecompose(t *testing.T) {
	const n = 4
	c, x, w, _, seed, loss := lossGraph(n)
	grads, err := Append(c, loss, seed, []*hlo.Instruction{x, w})
	if err != nil {
		t.Fatal(err)
	}
	c.Tuple(grads[x], grads[w])
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	opts.RematerializeGathers = true
	report, err := core.Apply(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.SitesFound < 2 {
		t.Fatalf("expected the forward AllGather and backward ReduceScatter sites, found %d", report.SitesFound)
	}
	if report.SitesDecomposed != report.SitesFound {
		t.Fatalf("decomposed %d of %d sites", report.SitesDecomposed, report.SitesFound)
	}
}

func TestCollectivePermuteAdjointReversesPairs(t *testing.T) {
	const n = 3
	c := hlo.NewComputation("cp")
	x := c.Parameter(0, "x", []int{2})
	seed := c.Parameter(1, "seed", []int{2})
	pairs := []hlo.SourceTargetPair{{Source: 0, Target: 2}, {Source: 1, Target: 0}, {Source: 2, Target: 1}}
	shifted := c.CollectivePermute(x, pairs)
	grads, err := Append(c, shifted, seed, []*hlo.Instruction{x})
	if err != nil {
		t.Fatal(err)
	}
	c.Tuple(grads[x])
	var rev *hlo.Instruction
	for _, in := range c.Instructions() {
		if in.Op == hlo.OpCollectivePermute && in != shifted {
			rev = in
		}
	}
	if rev == nil {
		t.Fatal("no adjoint permute emitted")
	}
	for _, p := range rev.Pairs {
		if !slices.Contains(shifted.Pairs, hlo.SourceTargetPair{Source: p.Target, Target: p.Source}) {
			t.Fatalf("pair %v is not the reversal of the forward permute", p)
		}
	}
}

func TestGradConcatSliceRoundTrip(t *testing.T) {
	// d/dx of Slice(Concat(x, y)) must route the cotangent back into
	// the right region.
	c := hlo.NewComputation("catslice")
	x := c.Parameter(0, "x", []int{2, 2})
	y := c.Parameter(1, "y", []int{2, 2})
	seed := c.Parameter(2, "seed", []int{2, 2})
	cat := c.Concat(0, x, y)
	sl := c.Slice(cat, []int{2, 0}, []int{4, 2}) // exactly y's region
	grads, err := Append(c, sl, seed, []*hlo.Instruction{x, y})
	if err != nil {
		t.Fatal(err)
	}
	c.Tuple(grads[x], grads[y])

	seedVal := tensor.Iota(2, 2)
	args := [][]*tensor.Tensor{{tensor.Iota(2, 2)}, {tensor.Iota(2, 2)}, {seedVal}}
	vals, err := sim.InterpretAll(c, 1, args)
	if err != nil {
		t.Fatal(err)
	}
	if !vals[grads[y]][0].Equal(seedVal) {
		t.Fatalf("dy = %v, want the seed", vals[grads[y]][0].Data())
	}
	if !vals[grads[x]][0].Equal(tensor.New(2, 2)) {
		t.Fatalf("dx = %v, want zeros", vals[grads[x]][0].Data())
	}
}

func TestGradUnusedParameterIsZero(t *testing.T) {
	c := hlo.NewComputation("unused")
	x := c.Parameter(0, "x", []int{2})
	u := c.Parameter(1, "unused", []int{2})
	seed := c.Parameter(2, "seed", []int{2})
	out := c.Add(x, x)
	grads, err := Append(c, out, seed, []*hlo.Instruction{x, u})
	if err != nil {
		t.Fatal(err)
	}
	if grads[u].Op != hlo.OpZero {
		t.Fatalf("unused parameter gradient is %s, want zero", grads[u].Op)
	}
}

func TestGradErrors(t *testing.T) {
	c := hlo.NewComputation("err")
	x := c.Parameter(0, "x", []int{2, 2})
	badSeed := c.Parameter(1, "s", []int{3})
	out := c.Add(x, x)
	if _, err := Append(c, out, badSeed, []*hlo.Instruction{x}); err == nil {
		t.Fatal("mismatched seed accepted")
	}
	// Unsupported op in the dependency cone.
	c2 := hlo.NewComputation("err2")
	a := c2.Parameter(0, "a", []int{4})
	s := c2.Parameter(1, "s", []int{4})
	ds := c2.DynamicSlice(a, []hlo.DynOffset{hlo.Static(0)}, []int{4})
	if _, err := Append(c2, ds, s, []*hlo.Instruction{a}); err == nil {
		t.Fatal("unsupported op differentiated")
	}
}
