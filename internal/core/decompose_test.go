package core

import (
	"math/rand"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// TestDecompositionEquivalenceMatrix drives every site shape through
// every optimization combination on several ring sizes and proves the
// rewritten program computes exactly what the blocking original did —
// the paper's "semantically equivalent graph transformation" claim.
func TestDecompositionEquivalenceMatrix(t *testing.T) {
	kinds := []siteKind{
		siteAGNonContracting, siteAGNonContractingRHS, siteAGContracting,
		siteAGBatch, siteRS, siteRSRHS,
	}
	rings := []int{2, 3, 4, 5, 6, 8}
	scheds := []SchedulerKind{SchedulerNone, SchedulerBottomUp, SchedulerTopDown}
	rng := rand.New(rand.NewSource(2023))
	for _, kind := range kinds {
		for _, n := range rings {
			tc := makeSite(kind, ringGroups(n), n, rng)
			for _, unroll := range []bool{false, true} {
				for _, bidi := range []bool{false, true} {
					for _, sched := range scheds {
						for _, fuse := range []bool{false, true} {
							opts := forceOpts(unroll, bidi, sched, fuse)
							checkEquivalence(t, tc, opts, label(kind, n, opts))
						}
					}
				}
			}
		}
	}
}

// TestDecompositionOnMeshAxis applies the decomposition to subgroup
// collectives along each axis of a 2D mesh — the multi-group ring case
// with non-unit stride the 2D partitioning strategies produce.
func TestDecompositionOnMeshAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mesh := topology.NewTorus2D(2, 4)
	for axis := 0; axis < 2; axis++ {
		groups := mesh.AxisGroups(axis)
		for _, kind := range []siteKind{siteAGNonContracting, siteAGContracting, siteRS} {
			tc := makeSite(kind, groups, mesh.NumDevices(), rng)
			for _, bidi := range []bool{false, true} {
				opts := forceOpts(true, bidi, SchedulerBottomUp, true)
				checkEquivalence(t, tc, opts, label(kind, mesh.Dim(axis), opts)+"/mesh-axis")
			}
		}
	}
}

// TestAllGatherShardSchedule verifies Fig 6: in the decomposed
// AllGather loop the partial computed at step i targets shard
// (pos + i) mod N, and every transfer is the circular shift left
// {0,N-1},{1,0},....
func TestAllGatherShardSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tc := makeSite(siteAGNonContracting, ringGroups(4), 4, rng)
	c := tc.build()
	opts := forceOpts(false, false, SchedulerNone, false)
	if _, err := Apply(c, opts); err != nil {
		t.Fatal(err)
	}
	var updates []hlo.DynOffset
	var permutes []*hlo.Instruction
	for _, in := range c.Instructions() {
		switch in.Op {
		case hlo.OpDynamicUpdateSlice:
			updates = append(updates, in.Offsets[0])
		case hlo.OpCollectivePermute:
			permutes = append(permutes, in)
		}
	}
	if len(updates) != 4 {
		t.Fatalf("expected 4 partial updates, got %d", len(updates))
	}
	for i, off := range updates {
		// Device at ring position pos updates shard (pos+i): offset
		// evaluates to ((pos+i) mod 4) * shardRows with shardRows = 4.
		for pos := 0; pos < 4; pos++ {
			want := ((pos + i) % 4) * 4
			if got := off.EvalIter(pos, 0); got != want {
				t.Fatalf("step %d pos %d offset = %d, want %d", i, pos, got, want)
			}
		}
	}
	if len(permutes) != 3 {
		t.Fatalf("expected N-1=3 collective permutes, got %d", len(permutes))
	}
	for _, cp := range permutes {
		for _, pr := range cp.Pairs {
			if pr.Target != (pr.Source+3)%4 {
				t.Fatalf("permute pair %v is not a circular shift left", pr)
			}
		}
	}
}

// TestReduceScatterShardSchedule verifies Fig 7: the partial computed at
// step i targets shard (pos + i + 1) mod N so the final shard id aligns
// with the device position, and the loop issues N transfers.
func TestReduceScatterShardSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tc := makeSite(siteRS, ringGroups(4), 4, rng)
	c := tc.build()
	opts := forceOpts(false, false, SchedulerNone, false)
	if _, err := Apply(c, opts); err != nil {
		t.Fatal(err)
	}
	var slices []hlo.DynOffset
	permutes := 0
	for _, in := range c.Instructions() {
		switch in.Op {
		case hlo.OpDynamicSlice:
			slices = append(slices, in.Offsets[0])
		case hlo.OpCollectivePermute:
			permutes++
		}
	}
	if len(slices) != 4 {
		t.Fatalf("expected 4 operand slices, got %d", len(slices))
	}
	for i, off := range slices {
		for pos := 0; pos < 4; pos++ {
			want := ((pos + i + 1) % 4) * 4 // shard rows = 4
			if got := off.EvalIter(pos, 0); got != want {
				t.Fatalf("step %d pos %d slice offset = %d, want %d", i, pos, got, want)
			}
		}
	}
	if permutes != 4 {
		t.Fatalf("expected N=4 collective permutes (Algorithm 1), got %d", permutes)
	}
}

// TestUnrolledReduceScatterStructure verifies Fig 8: with unrolling the
// loop forms two shift-by-two chains plus one alignment epilogue
// permute, and no Copy instructions remain.
func TestUnrolledReduceScatterStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tc := makeSite(siteRS, ringGroups(4), 4, rng)
	c := tc.build()
	if _, err := Apply(c, forceOpts(true, false, SchedulerNone, false)); err != nil {
		t.Fatal(err)
	}
	shift2, shift1, copies := 0, 0, 0
	for _, in := range c.Instructions() {
		switch in.Op {
		case hlo.OpCollectivePermute:
			delta := (in.Pairs[0].Target - in.Pairs[0].Source + 4) % 4
			if delta == 2 {
				shift2++
			} else if delta == 1 {
				shift1++
			}
		case hlo.OpCopy:
			copies++
		}
	}
	if shift2 != 4 { // two chains × N/2 steps
		t.Fatalf("expected 4 shift-by-2 permutes, got %d", shift2)
	}
	if shift1 != 1 { // alignment epilogue
		t.Fatalf("expected 1 epilogue permute, got %d", shift1)
	}
	if copies != 0 {
		t.Fatalf("unrolled loop still has %d copies", copies)
	}
}

// TestNonUnrolledLoopHasCopies verifies the §5.4.1 premise: the naive
// rolled loop carries explicit Copy instructions that unrolling removes.
func TestNonUnrolledLoopHasCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, kind := range []siteKind{siteAGNonContracting, siteRS} {
		tc := makeSite(kind, ringGroups(4), 4, rng)
		c := tc.build()
		if _, err := Apply(c, forceOpts(false, false, SchedulerNone, false)); err != nil {
			t.Fatal(err)
		}
		copies := 0
		for _, in := range c.Instructions() {
			if in.Op == hlo.OpCopy {
				copies++
			}
		}
		if copies == 0 {
			t.Fatalf("%s: naive loop emitted no copies", siteKindNames[kind])
		}
	}
}

// TestBidirectionalTransferStructure verifies Figs 9–10: the
// bidirectional variants send shards in both ring directions and halve
// the number of serial steps.
func TestBidirectionalTransferStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range []siteKind{siteAGNonContracting, siteRS} {
		tc := makeSite(kind, ringGroups(4), 4, rng)
		c := tc.build()
		if _, err := Apply(c, forceOpts(true, true, SchedulerNone, false)); err != nil {
			t.Fatal(err)
		}
		leftCount, rightCount := 0, 0
		for _, in := range c.Instructions() {
			if in.Op != hlo.OpCollectivePermute {
				continue
			}
			delta := (in.Pairs[0].Target - in.Pairs[0].Source + 4) % 4
			switch delta {
			case 3:
				leftCount++
			case 1:
				rightCount++
			}
		}
		if leftCount == 0 || rightCount == 0 {
			t.Fatalf("%s: bidirectional loop uses one direction only (left=%d right=%d)",
				siteKindNames[kind], leftCount, rightCount)
		}
	}
}

// TestOddRingFallsBackToUnidirectional confirms the bidirectional option
// degrades gracefully on odd rings.
func TestOddRingFallsBackToUnidirectional(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tc := makeSite(siteAGNonContracting, ringGroups(3), 3, rng)
	c := tc.build()
	if _, err := Apply(c, forceOpts(true, true, SchedulerBottomUp, true)); err != nil {
		t.Fatal(err)
	}
	// Equivalence is the real check.
	checkEquivalence(t, tc, forceOpts(true, true, SchedulerBottomUp, true), "odd-ring-fallback")
}

// TestDecomposePreservesOtherUsers: an einsum feeding both a
// ReduceScatter and the AllGather of the next layer must stay correct
// when only one site is rewritten.
func TestMultipleSitesInOneComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n, m, k, nn = 4, 4, 6, 5
	build := func() *hlo.Computation {
		c := hlo.NewComputation("two_sites")
		a := c.Parameter(0, "a", []int{m, k})
		b := c.Parameter(1, "b", []int{k, nn})
		w := c.Parameter(2, "w", []int{nn, k})
		full := c.AllGather(a, 0, ringGroups(n))
		h := c.Einsum("mk,kn->mn", full, b) // site 1: AG-einsum
		ein2 := c.Einsum("mn,nk->mk", h, w)
		c.ReduceScatter(ein2, 0, ringGroups(n)) // site 2: einsum-RS
		return c
	}
	mk := func(shape ...int) []*tensor.Tensor {
		out := make([]*tensor.Tensor, n)
		for d := range out {
			out[d] = tensor.Rand(rng, shape...)
		}
		return out
	}
	tc2 := testCase{build: build, n: n, args: [][]*tensor.Tensor{mk(m, k), mk(k, nn), mk(nn, k)}}
	opts := forceOpts(true, true, SchedulerBottomUp, true)
	base := build()
	report, err := Apply(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.SitesDecomposed != 2 {
		t.Fatalf("decomposed %d sites, want 2", report.SitesDecomposed)
	}
	checkEquivalence(t, tc2, opts, "two-sites")
}
