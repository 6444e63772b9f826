package core

import (
	"fmt"

	"overlap/internal/hlo"
)

// MakeAsync splits every blocking CollectivePermute in the computation
// into a CollectivePermuteStart/CollectivePermuteDone pair (§5.2). The
// pair is left adjacent; the scheduling passes then pull starts early
// and push dones late to create overlap.
//
// The pass is idempotent: a second call finds no blocking permutes and
// returns without touching the computation, so existing Start/Done
// pairs are never re-wrapped and a schedule already produced by the
// scheduling passes is left exactly as it stands.
func MakeAsync(c *hlo.Computation) int {
	blocking := false
	for i := 0; i < c.NumInstructions() && !blocking; i++ {
		blocking = c.At(i).Op == hlo.OpCollectivePermute
	}
	if !blocking {
		return 0
	}
	converted := 0
	c.WithRootPreserved(func() {
		for _, in := range c.Instructions() {
			if in.Op != hlo.OpCollectivePermute {
				continue
			}
			// The pair shares the permute's attributes, which are
			// immutable: nothing is copied.
			start := c.AddBuilt(&hlo.Instruction{Op: hlo.OpCollectivePermuteStart, Operands: []*hlo.Instruction{in.Operands[0]}, Attrs: in.Attrs})
			done := c.CollectivePermuteDone(start)
			// A custom-named permute (e.g. the gradient-bucket pass's
			// "gbktK." prefix) keeps its name on the async pair so trace
			// spans and overlap attribution stay addressable; auto-named
			// permutes keep the auto-derived start/done names.
			if in.Name != fmt.Sprintf("%s.%d", in.Op, in.ID) {
				start.Name = in.Name + ".start"
				done.Name = in.Name + ".done"
			}
			c.ReplaceAllUsesWith(in, done)
			converted++
		}
		// Re-sort before DCE so the computation's true sink is back in root
		// position (appends put the new dones after it).
		c.ScheduleStableTopological()
		c.RemoveDeadCode()
	})
	return converted
}
