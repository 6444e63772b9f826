package core

import "overlap/internal/hlo"

// ScheduleMinMemory reorders the computation with a greedy list
// scheduler that minimizes live bytes — the "existing instruction
// scheduling pass (which uses an algorithm that tries to minimize the
// memory usage)" whose output §5.2 feeds to the overlap schedulers. At
// every step it picks, among ready instructions, the one with the best
// immediate liveness delta: freed operand bytes minus allocated result
// bytes, breaking ties toward the original order.
//
// The pipeline runs it before the overlap scheduling pass so the
// bottom-up scheduler starts from the memory-friendly order the paper
// assumes (its tie-breaking falls back to that order).
func ScheduleMinMemory(c *hlo.Computation) error {
	n := c.NumInstructions()
	// Per-instruction state, indexed by ID: distinct operands not yet
	// placed, distinct users not yet placed.
	origPos := make([]int, c.IDBound())
	opsLeft := make([]int, c.IDBound())
	usersLeft := make([]int, c.IDBound())
	var ready []*hlo.Instruction
	for i := 0; i < n; i++ {
		in := c.At(i)
		origPos[in.ID] = i
		for slot := range in.Operands {
			if firstMention(in.Operands, slot) {
				opsLeft[in.ID]++
			}
		}
		usersLeft[in.ID] = in.NumUsers()
		if opsLeft[in.ID] == 0 {
			ready = append(ready, in)
		}
	}

	// delta estimates the immediate live-bytes change of scheduling in:
	// its own allocation minus operands whose last use this is.
	delta := func(in *hlo.Instruction) int64 {
		d := allocBytes(in)
		for slot, op := range in.Operands {
			if firstMention(in.Operands, slot) && usersLeft[op.ID] == 1 && op.Op != hlo.OpParameter {
				d -= allocBytes(op)
			}
		}
		return d
	}

	order := make([]*hlo.Instruction, 0, n)
	for len(order) < n && len(ready) > 0 {
		// The ready instruction with the least delta, the earliest in
		// the original order among equals.
		best, bestDelta := 0, delta(ready[0])
		for k := 1; k < len(ready); k++ {
			d := delta(ready[k])
			if d < bestDelta || (d == bestDelta && origPos[ready[k].ID] < origPos[ready[best].ID]) {
				best, bestDelta = k, d
			}
		}
		cand := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, cand)
		for slot, op := range cand.Operands {
			if firstMention(cand.Operands, slot) {
				usersLeft[op.ID]--
			}
		}
		for i := 0; i < cand.NumUsers(); i++ {
			u := cand.User(i)
			opsLeft[u.ID]--
			if opsLeft[u.ID] == 0 {
				ready = append(ready, u)
			}
		}
	}
	return c.SetSchedule(order)
}

// allocBytes mirrors the memory analysis' allocation rules for the
// common cases the greedy delta needs.
func allocBytes(in *hlo.Instruction) int64 {
	switch in.Op {
	case hlo.OpTuple, hlo.OpReshape, hlo.OpCollectivePermuteDone:
		return 0
	default:
		return in.ByteSize()
	}
}
