package core

import (
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/machine"
)

func countOps(c *hlo.Computation, op hlo.OpCode) int {
	n := 0
	for _, in := range c.Instructions() {
		if in.Op == op {
			n++
		}
	}
	return n
}

// TestMakeAsyncIdempotent is the regression test for re-running the
// async conversion: the first call converts every blocking permute, and
// any further call must convert nothing and leave the computation —
// including a schedule the scheduling pass has already arranged —
// byte-for-byte unchanged, never double-wrapping Start/Done pairs.
func TestMakeAsyncIdempotent(t *testing.T) {
	build := func() *hlo.Computation {
		c := hlo.NewComputation("async")
		a := c.Parameter(0, "a", []int{4, 4})
		b := c.Parameter(1, "b", []int{4, 4})
		p := c.CollectivePermute(a, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}})
		q := c.CollectivePermute(b, []hlo.SourceTargetPair{{Source: 1, Target: 0}, {Source: 0, Target: 1}})
		ein := c.Einsum("mk,kn->mn", p, q)
		c.Tuple(ein)
		return c
	}

	c := build()
	if got := MakeAsync(c); got != 2 {
		t.Fatalf("first MakeAsync converted %d permutes, want 2", got)
	}
	if starts := countOps(c, hlo.OpCollectivePermuteStart); starts != 2 {
		t.Fatalf("got %d starts after conversion, want 2", starts)
	}
	before := c.Format()

	if got := MakeAsync(c); got != 0 {
		t.Fatalf("second MakeAsync converted %d permutes, want 0", got)
	}
	if after := c.Format(); after != before {
		t.Fatalf("second MakeAsync changed the computation:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if starts, dones := countOps(c, hlo.OpCollectivePermuteStart), countOps(c, hlo.OpCollectivePermuteDone); starts != 2 || dones != 2 {
		t.Fatalf("start/done pairs double-wrapped: %d starts, %d dones", starts, dones)
	}

	// A scheduled program must also survive re-conversion untouched:
	// the guard must not re-sort the schedule the pass produced.
	if err := c.SetSchedule(ScheduleBottomUp(c, machine.TPUv4())); err != nil {
		t.Fatal(err)
	}
	scheduled := c.Format()
	if got := MakeAsync(c); got != 0 {
		t.Fatalf("MakeAsync on scheduled program converted %d, want 0", got)
	}
	if c.Format() != scheduled {
		t.Fatal("MakeAsync disturbed an existing schedule")
	}
}
