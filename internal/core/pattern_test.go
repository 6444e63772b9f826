package core

import (
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/topology"
)

func TestRingFromGroupsValid(t *testing.T) {
	r, ok := RingFromGroups([][]int{{0, 1, 2, 3}})
	if !ok || r.N != 4 || r.Stride != 1 {
		t.Fatalf("ring = %+v ok=%v", r, ok)
	}
	// 2x4 mesh, axis 0 groups: stride 4.
	mesh := topology.NewTorus2D(2, 4)
	r, ok = RingFromGroups(mesh.AxisGroups(0))
	if !ok || r.N != 2 || r.Stride != 4 {
		t.Fatalf("mesh axis ring = %+v ok=%v", r, ok)
	}
}

func TestRingFromGroupsRejectsIrregular(t *testing.T) {
	cases := [][][]int{
		{},                  // no groups
		{{0}},               // degenerate single-device group
		{{0, 2, 3}},         // uneven stride
		{{0, 1}, {2, 3, 4}}, // mismatched sizes
		{{1, 0}},            // negative stride
		{{0, 1}, {3, 4}},    // position identity broken for {3,4}
	}
	for i, groups := range cases {
		if _, ok := RingFromGroups(groups); ok {
			t.Errorf("case %d accepted: %v", i, groups)
		}
	}
}

func TestRingShiftPairsAndOffsets(t *testing.T) {
	mesh := topology.NewTorus2D(2, 3)
	r, ok := RingFromGroups(mesh.AxisGroups(1))
	if !ok {
		t.Fatal("axis-1 groups rejected")
	}
	pairs := r.ShiftPairs(-1)
	if len(pairs) != 6 {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		// Same x coordinate, y shifted by -1.
		cs, cd := mesh.Coord(p.Source), mesh.Coord(p.Target)
		if cs[0] != cd[0] || cd[1] != (cs[1]+2)%3 {
			t.Fatalf("bad pair %v", p)
		}
	}
	off := r.PosOffset(1, 10)
	// Device 4 = coord (1,1): position 1 → ((1+1)%3)*10 = 20.
	if got := off.EvalIter(4, 0); got != 20 {
		t.Fatalf("PosOffset eval = %d, want 20", got)
	}
}

func TestFindPatternsClassifiesCases(t *testing.T) {
	groups := ringGroups(4)
	type want struct {
		kind PatternKind
		c    AGCase
	}
	cases := []struct {
		name  string
		build func(c *hlo.Computation)
		want  want
	}{
		{"case1", func(c *hlo.Computation) {
			a := c.Parameter(0, "a", []int{4, 8})
			b := c.Parameter(1, "b", []int{8, 6})
			full := c.AllGather(a, 0, groups)
			c.Einsum("mk,kn->mn", full, b)
		}, want{AllGatherEinsum, CaseNonContracting}},
		{"case2", func(c *hlo.Computation) {
			a := c.Parameter(0, "a", []int{4, 8})
			b := c.Parameter(1, "b", []int{32, 6})
			full := c.AllGather(a, 1, groups)
			c.Einsum("mk,kn->mn", full, b)
		}, want{AllGatherEinsum, CaseContracting}},
		{"case3", func(c *hlo.Computation) {
			a := c.Parameter(0, "a", []int{2, 4, 8})
			b := c.Parameter(1, "b", []int{8, 8, 6})
			full := c.AllGather(a, 0, groups)
			c.Einsum("gmk,gkn->gmn", full, b)
		}, want{AllGatherEinsum, CaseBatch}},
	}
	for _, tcase := range cases {
		c := hlo.NewComputation(tcase.name)
		tcase.build(c)
		ps := FindPatterns(c, FirstChooser{})
		if len(ps) != 1 {
			t.Fatalf("%s: %d patterns", tcase.name, len(ps))
		}
		if ps[0].Kind != tcase.want.kind || ps[0].Case != tcase.want.c {
			t.Fatalf("%s: got %v/%v", tcase.name, ps[0].Kind, ps[0].Case)
		}
	}
}

func TestFindPatternsSkipsMultiUserAllGather(t *testing.T) {
	c := hlo.NewComputation("shared_ag")
	a := c.Parameter(0, "a", []int{4, 8})
	b := c.Parameter(1, "b", []int{8, 6})
	full := c.AllGather(a, 0, ringGroups(4))
	c.Einsum("mk,kn->mn", full, b)
	c.Copy(full) // second user
	if ps := FindPatterns(c, FirstChooser{}); len(ps) != 0 {
		t.Fatalf("matched a shared AllGather: %d patterns", len(ps))
	}
}

func TestFindPatternsSkipsBatchScatterDim(t *testing.T) {
	// ReduceScatter along a batch output dim (label in both operands)
	// is not a supported decomposition target.
	c := hlo.NewComputation("rs_batch")
	a := c.Parameter(0, "a", []int{4, 4, 8})
	b := c.Parameter(1, "b", []int{4, 8, 6})
	ein := c.Einsum("gmk,gkn->gmn", a, b)
	c.ReduceScatter(ein, 0, ringGroups(4))
	if ps := FindPatterns(c, FirstChooser{}); len(ps) != 0 {
		t.Fatalf("matched batch-dim reduce-scatter: %d patterns", len(ps))
	}
}

func TestFindPatternsSkipsNonEinsumProducers(t *testing.T) {
	c := hlo.NewComputation("rs_add")
	a := c.Parameter(0, "a", []int{8, 8})
	sum := c.Add(a, a)
	c.ReduceScatter(sum, 0, ringGroups(4))
	if ps := FindPatterns(c, FirstChooser{}); len(ps) != 0 {
		t.Fatal("matched reduce-scatter of a non-einsum")
	}
}

func TestFindPatternsEinsumWithAGAndRS(t *testing.T) {
	// One einsum with both an AllGather operand and a ReduceScatter
	// user: exactly one pattern must be chosen.
	c := hlo.NewComputation("both")
	a := c.Parameter(0, "a", []int{16, 8})
	b := c.Parameter(1, "b", []int{32, 24})
	full := c.AllGather(a, 1, ringGroups(4))
	ein := c.Einsum("mk,kn->mn", full, b)
	c.ReduceScatter(ein, 1, ringGroups(4))
	ps := FindPatterns(c, FirstChooser{})
	if len(ps) != 1 {
		t.Fatalf("%d patterns, want exactly 1 per einsum", len(ps))
	}
}

func TestPatternKindAndCaseStrings(t *testing.T) {
	if AllGatherEinsum.String() != "allgather-einsum" || EinsumReduceScatter.String() != "einsum-reducescatter" {
		t.Fatal("PatternKind strings wrong")
	}
	if CaseNonContracting.String() != "non-contracting" || CaseContracting.String() != "contracting" || CaseBatch.String() != "batch" {
		t.Fatal("AGCase strings wrong")
	}
}
