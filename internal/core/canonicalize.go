package core

import (
	"sort"

	"overlap/internal/hlo"
)

// CanonicalizeAllReduce rewrites each AllReduce into the equivalent
// ReduceScatter followed by AllGather (§2.1: "AllReduce can be
// considered as a ReduceScatter followed by an AllGather"). On its own
// the pair costs the same wire time; its value is that both halves are
// decomposition targets — the ReduceScatter can pair with a producing
// einsum and the AllGather with a consuming one — where the fused
// AllReduce pairs with neither. The split needs a dimension divisible
// by the group size; AllReduces without one are left alone.
//
// It returns the number of AllReduces rewritten.
func CanonicalizeAllReduce(c *hlo.Computation) int {
	rewritten := 0
	c.WithRootPreserved(func() {
		for _, in := range c.Instructions() {
			if in.Op != hlo.OpAllReduce {
				continue
			}
			g := len(in.Groups[0])
			axis := -1
			for dim, size := range in.Shape {
				if g > 0 && size%g == 0 {
					axis = dim
					break
				}
			}
			if axis < 0 || g <= 1 {
				continue
			}
			rs := c.ReduceScatter(in.Operands[0], axis, in.Groups)
			ag := c.AllGather(rs, axis, in.Groups)
			c.ReplaceAllUsesWith(in, ag)
			rewritten++
		}
		c.ScheduleStableTopological()
		c.RemoveDeadCode()
	})
	return rewritten
}

// RematerializeGathers gives every user of a multi-consumer AllGather
// its own copy of the gather. Backward passes naturally share the
// forward pass's gathered operands (the weight gradient reuses the
// gathered activation), which both pins a large buffer across the whole
// step and hides the AllGather from the decomposition's
// single-consumer pattern; re-gathering per consumer is the standard
// memory-saving choice and restores one decomposable site per einsum.
//
// It returns the number of gathers duplicated.
func RematerializeGathers(c *hlo.Computation) int {
	duplicated := 0
	c.WithRootPreserved(func() {
		for _, in := range c.Instructions() {
			if in.Op != hlo.OpAllGather || in.NumUsers() <= 1 {
				continue
			}
			// Users() is in the order the edges were made, which earlier
			// rewrites shuffle; clone in ID order so the emitted names,
			// and with them the program text, follow the program alone.
			users := in.Users()
			sort.Slice(users, func(i, j int) bool { return users[i].ID < users[j].ID })
			for _, u := range users {
				clone := c.AllGather(in.Operands[0], in.CollectiveAxis, in.Groups)
				u.ReplaceOperand(in, clone)
				duplicated++
			}
		}
		c.ScheduleStableTopological()
		c.RemoveDeadCode()
	})
	return duplicated
}
