package core

import (
	"math/rand"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/sim"
	"overlap/internal/topology"
)

func rolledOpts() Options {
	opts := forceOpts(false, false, SchedulerNone, false)
	opts.Rolled = true
	return opts
}

// TestRolledEquivalenceMatrix proves the rolled (counted-loop) emission
// computes exactly what the blocking original did, for every site shape
// and several ring sizes.
func TestRolledEquivalenceMatrix(t *testing.T) {
	kinds := []siteKind{
		siteAGNonContracting, siteAGNonContractingRHS, siteAGContracting,
		siteAGBatch, siteRS, siteRSRHS,
	}
	rng := rand.New(rand.NewSource(31))
	for _, kind := range kinds {
		for _, n := range []int{2, 3, 4, 6} {
			tc := makeSite(kind, ringGroups(n), n, rng)
			checkEquivalence(t, tc, rolledOpts(), label(kind, n, rolledOpts())+"/rolled")
		}
	}
}

// TestRolledOnMeshAxis checks the rolled form on subgroup rings with
// non-unit stride.
func TestRolledOnMeshAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	mesh := topology.NewTorus2D(2, 3)
	for axis := 0; axis < 2; axis++ {
		groups := mesh.AxisGroups(axis)
		for _, kind := range []siteKind{siteAGNonContracting, siteRS} {
			tc := makeSite(kind, groups, mesh.NumDevices(), rng)
			checkEquivalence(t, tc, rolledOpts(), label(kind, mesh.Dim(axis), rolledOpts())+"/rolled-mesh")
		}
	}
}

// TestRolledStructure: the rewrite produces exactly one loop whose body
// carries the per-iteration aliasing Copy and a blocking
// CollectivePermute — the §5.4.1 premise.
func TestRolledStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tc := makeSite(siteRS, ringGroups(4), 4, rng)
	c := tc.build()
	if _, err := Apply(c, rolledOpts()); err != nil {
		t.Fatal(err)
	}
	var loop *hlo.Instruction
	for _, in := range c.Instructions() {
		if in.Op == hlo.OpLoop {
			if loop != nil {
				t.Fatal("more than one loop emitted")
			}
			loop = in
		}
	}
	if loop == nil {
		t.Fatal("no loop emitted")
	}
	if loop.TripCount != 4 || loop.ResultIndex != 0 {
		t.Fatalf("loop trip=%d result=%d", loop.TripCount, loop.ResultIndex)
	}
	hasCopy, hasCP := false, false
	for _, in := range loop.Body.Instructions() {
		switch in.Op {
		case hlo.OpCopy:
			hasCopy = true
		case hlo.OpCollectivePermute:
			hasCP = true
		}
	}
	if !hasCopy || !hasCP {
		t.Fatalf("loop body missing copy (%v) or permute (%v)", hasCopy, hasCP)
	}
}

// TestRolledSlowerThanExpanded: the rolled form cannot overlap and pays
// the aliasing copies, so the expanded + scheduled pipeline must beat it
// — the quantitative reason the paper's implementation unrolls.
func TestRolledSlowerThanExpanded(t *testing.T) {
	const n = 8
	spec := machine.TPUv4()
	rolled := bigSite(n)
	if _, err := Apply(rolled, rolledOpts()); err != nil {
		t.Fatal(err)
	}
	rolledBd, err := sim.Simulate(rolled, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	expanded := bigSite(n)
	if _, err := Apply(expanded, forceOpts(true, true, SchedulerBottomUp, true)); err != nil {
		t.Fatal(err)
	}
	expandedBd, err := sim.Simulate(expanded, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	if expandedBd.StepTime >= rolledBd.StepTime {
		t.Fatalf("expanded %.3gs not faster than rolled %.3gs", expandedBd.StepTime, rolledBd.StepTime)
	}
}

// TestRolledLoopCostMatchesSimulation: the machine model's serial loop
// cost approximates what the simulator measures for a symmetric ring.
func TestRolledLoopCostMatchesSimulation(t *testing.T) {
	const n = 4
	spec := machine.TPUv4()
	c := bigSite(n)
	if _, err := Apply(c, rolledOpts()); err != nil {
		t.Fatal(err)
	}
	var loop *hlo.Instruction
	for _, in := range c.Instructions() {
		if in.Op == hlo.OpLoop {
			loop = in
		}
	}
	if loop == nil {
		t.Fatal("no loop")
	}
	est := spec.InstructionCost(loop)
	bd, err := sim.Simulate(c, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate serializes wire and compute; the simulation's step
	// must be within a factor of ~2 of it (the blocking permutes do
	// serialize on a ring).
	if bd.StepTime < est/2 || bd.StepTime > est*2 {
		t.Fatalf("loop cost estimate %.3g vs simulated %.3g", est, bd.StepTime)
	}
}

// TestIterOffsetEval covers the iteration-variant offset arithmetic.
func TestIterOffsetEval(t *testing.T) {
	ring, ok := RingFromGroups(ringGroups(4))
	if !ok {
		t.Fatal("ring rejected")
	}
	off := ring.PosOffsetIter(1, 8) // ((pos + iter + 1) mod 4) * 8
	if got := off.EvalIter(2, 0); got != 24 {
		t.Fatalf("EvalIter(2,0) = %d, want 24", got)
	}
	if got := off.EvalIter(2, 3); got != 16 {
		t.Fatalf("EvalIter(2,3) = %d, want 16", got)
	}
	if got := off.EvalIter(2, 0); got != 24 {
		t.Fatal("Eval must be EvalIter(·, 0)")
	}
}
