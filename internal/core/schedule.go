package core

import (
	"container/heap"

	"overlap/internal/hlo"
	"overlap/internal/machine"
)

// latency estimates how long an instruction occupies its device (or,
// for a CollectivePermuteDone, how much time must elapse after the
// matching start for the transfer to land). The schedulers use it to
// decide how much computation to place inside each start/done window.
func latency(in *hlo.Instruction, spec machine.Spec) float64 {
	switch in.Op {
	case hlo.OpCollectivePermuteStart:
		return 0
	case hlo.OpCollectivePermuteDone:
		return spec.TransferTime(in.Operands[0].Operands[0].ByteSize(), 1)
	case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll, hlo.OpCollectivePermute:
		return spec.CollectiveTime(in) + spec.InstructionCost(in)
	default:
		return spec.InstructionCost(in)
	}
}

// firstMention reports whether operands[i] does not already appear in
// operands[:i]: the schedulers count an operand named in several slots
// once.
func firstMention(operands []*hlo.Instruction, i int) bool {
	for _, earlier := range operands[:i] {
		if earlier == operands[i] {
			return false
		}
	}
	return true
}

// ScheduleBottomUp orders the computation with the reverse list
// scheduler of Algorithm 2: instructions are scheduled from the graph
// roots backwards, prioritizing CollectivePermuteDones (so they land
// late in forward order) and holding each CollectivePermuteStart in a
// pending queue until enough reverse time — the transfer latency — has
// been covered by other work, which is what places computation between
// the start and the done. The in-flight budget bounds simultaneously
// outstanding transfers.
//
// It returns the order and leaves c as it was; the caller applies it
// with SetSchedule, which is also what rejects an order a malformed
// graph left incomplete. A search holds one asynchronous program and
// the orders of several schedulers against it, as instruction IDs.
func ScheduleBottomUp(c *hlo.Computation, spec machine.Spec) []*hlo.Instruction {
	n := c.NumInstructions()
	// Per-instruction state, indexed by ID. usersLeft counts distinct
	// users not yet scheduled; lat is latency(), which only the
	// instruction itself determines, taken once.
	origPos := make([]int, c.IDBound())
	usersLeft := make([]int, c.IDBound())
	readyTime := make([]float64, c.IDBound())
	lat := make([]float64, c.IDBound())
	for i := 0; i < n; i++ {
		in := c.At(i)
		origPos[in.ID] = i
		usersLeft[in.ID] = in.NumUsers()
		lat[in.ID] = latency(in, spec)
	}
	newSeq := make([]*hlo.Instruction, 0, n)

	// rank orders the ready queue: smaller is better.
	rank := func(in *hlo.Instruction) int {
		switch {
		case in.Op == hlo.OpCollectivePermuteDone:
			return 0
		case in.Op == hlo.OpCollectivePermuteStart:
			// Once its time gate has passed (the pending queue holds a
			// start until enough reverse path — the transfer latency —
			// is covered), a start goes promptly so it lands early in
			// forward order, unlocking the upstream done.
			return 1
		case hasOperandOp(in, hlo.OpCollectivePermuteDone):
			return 2
		default:
			return 3
		}
	}
	// less is a total order: no two instructions share a position.
	less := func(a, b *hlo.Instruction) bool {
		ra, rb := rank(a), rank(b)
		if ra != rb {
			return ra < rb
		}
		// Reverse original order preserves the memory-pressure-friendly
		// input schedule among equals.
		return origPos[a.ID] > origPos[b.ID]
	}

	var ready []*hlo.Instruction
	pending := &pendingHeap{}
	currentTime := 0.0
	inFlight := 0

	computeReady := func(in *hlo.Instruction) float64 {
		t := 0.0
		for i := 0; i < in.NumUsers(); i++ {
			u := in.User(i)
			if f := readyTime[u.ID] + lat[u.ID]; f > t {
				t = f
			}
		}
		return t
	}
	enqueue := func(in *hlo.Instruction) {
		rt := computeReady(in)
		if rt <= currentTime {
			ready = append(ready, in)
		} else {
			heap.Push(pending, pendingItem{in, rt})
		}
	}
	for i := 0; i < n; i++ {
		if in := c.At(i); in.NumUsers() == 0 {
			enqueue(in)
		}
	}

	schedule := func(in *hlo.Instruction) {
		newSeq = append(newSeq, in)
		rt := computeReady(in)
		readyTime[in.ID] = rt
		// Algorithm 2: current_time follows the candidate's critical
		// path, so the pending gate measures covered path length, not
		// the serial sum of all scheduled latencies. A done advances
		// the clock by zero — it occupies no device time; its transfer
		// latency gates only the matching start (via computeReady).
		advance := lat[in.ID]
		if in.Op == hlo.OpCollectivePermuteDone {
			advance = 0
		}
		currentTime = rt + advance
		switch in.Op {
		case hlo.OpCollectivePermuteDone:
			inFlight++
		case hlo.OpCollectivePermuteStart:
			inFlight--
		}
		for i, op := range in.Operands {
			if !firstMention(in.Operands, i) {
				continue
			}
			usersLeft[op.ID]--
			if usersLeft[op.ID] == 0 {
				enqueue(op)
			}
		}
	}

	for len(newSeq) < n {
		// Promote pending entries whose time has come.
		for pending.Len() > 0 && (*pending)[0].readyAt <= currentTime {
			ready = append(ready, heap.Pop(pending).(pendingItem).in)
		}
		var cand *hlo.Instruction
		if len(ready) > 0 {
			// The least ready instruction under less — and, for the
			// budget, the least that is not a done: avoid opening
			// another async window when the flag pool is exhausted,
			// unless nothing else is ready.
			idx, other := 0, -1
			for k, in := range ready {
				if less(in, ready[idx]) {
					idx = k
				}
				if in.Op != hlo.OpCollectivePermuteDone && (other < 0 || less(in, ready[other])) {
					other = k
				}
			}
			if ready[idx].Op == hlo.OpCollectivePermuteDone && inFlight >= spec.MaxInFlight && other >= 0 {
				idx = other
			}
			cand = ready[idx]
			ready = append(ready[:idx], ready[idx+1:]...)
		} else if pending.Len() > 0 {
			it := heap.Pop(pending).(pendingItem)
			currentTime = it.readyAt
			cand = it.in
		} else {
			break
		}
		schedule(cand)
	}

	// Reverse into forward order.
	for i, j := 0, len(newSeq)-1; i < j; i, j = i+1, j-1 {
		newSeq[i], newSeq[j] = newSeq[j], newSeq[i]
	}
	return newSeq
}

type pendingItem struct {
	in      *hlo.Instruction
	readyAt float64
}

type pendingHeap []pendingItem

func (h pendingHeap) Len() int            { return len(h) }
func (h pendingHeap) Less(i, j int) bool  { return h[i].readyAt < h[j].readyAt }
func (h pendingHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x interface{}) { *h = append(*h, x.(pendingItem)) }
func (h *pendingHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func hasOperandOp(in *hlo.Instruction, op hlo.OpCode) bool {
	for _, o := range in.Operands {
		if o.Op == op {
			return true
		}
	}
	return false
}

// ScheduleTopDown orders the computation with the simpler forward
// heuristic of §5.2: a CollectivePermuteStart is scheduled as early as
// possible once its operands are placed, a CollectivePermuteDone as
// late as possible (only when no other instruction is ready), and
// everything else keeps its input order. The in-flight budget defers
// starts rather than dones. Like ScheduleBottomUp it returns the order
// and leaves c as it was. It is kept as Figure 16's comparison and as an
// autotune candidate (SchedulerTopDown), not as a default.
func ScheduleTopDown(c *hlo.Computation, spec machine.Spec) []*hlo.Instruction {
	n := c.NumInstructions()
	origPos := make([]int, c.IDBound())
	opsLeft := make([]int, c.IDBound())     // distinct operands not yet placed
	arrival := make([]float64, c.IDBound()) // start → estimated landing time
	var ready []*hlo.Instruction
	for i := 0; i < n; i++ {
		in := c.At(i)
		origPos[in.ID] = i
		for slot := range in.Operands {
			if firstMention(in.Operands, slot) {
				opsLeft[in.ID]++
			}
		}
		if opsLeft[in.ID] == 0 {
			ready = append(ready, in)
		}
	}
	newSeq := make([]*hlo.Instruction, 0, n)
	inFlight := 0
	now := 0.0

	// Rank: starts go as early as possible; dones whose transfer has
	// (by estimate) already landed are free to place; compute fills the
	// windows; dones still in flight go only when nothing else can (the
	// §5.2 "as late as possible" rule, refined with the runtime-cost
	// rebalancing estimate).
	rank := func(in *hlo.Instruction) int {
		switch in.Op {
		case hlo.OpCollectivePermuteStart:
			if inFlight >= spec.MaxInFlight {
				return 3 // flag pool exhausted: hold the start back
			}
			return 0
		case hlo.OpCollectivePermuteDone:
			if arrival[in.Operands[0].ID] <= now {
				return 1 // transfer already landed: placing it is free
			}
			return 4
		default:
			return 2
		}
	}

	for len(newSeq) < n && len(ready) > 0 {
		best := 0
		for k := 1; k < len(ready); k++ {
			rb, rk := rank(ready[best]), rank(ready[k])
			if rk < rb || (rk == rb && origPos[ready[k].ID] < origPos[ready[best].ID]) {
				best = k
			}
		}
		cand := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		newSeq = append(newSeq, cand)
		switch cand.Op {
		case hlo.OpCollectivePermuteStart:
			inFlight++
			// What latency() prices the done this start will get at.
			arrival[cand.ID] = now + spec.TransferTime(cand.Operands[0].ByteSize(), 1)
		case hlo.OpCollectivePermuteDone:
			inFlight--
			if a := arrival[cand.Operands[0].ID]; a > now {
				now = a // stalled until the transfer landed
			}
		default:
			now += latency(cand, spec)
		}
		for i := 0; i < cand.NumUsers(); i++ {
			u := cand.User(i)
			opsLeft[u.ID]--
			if opsLeft[u.ID] == 0 {
				ready = append(ready, u)
			}
		}
	}
	return newSeq
}
