package hlo

// Peak-memory estimation over a schedule. The paper's scheduling pass
// starts from a memory-minimizing instruction order and "avoids
// dramatically changing the liveness of variables" (§5.2), and the
// unrolling optimization trades an extra accumulation buffer for
// eliminated copies (§5.4.1); this analysis makes both effects
// measurable.
//
// The model is interval-based: a buffer becomes live when its defining
// instruction executes and dies after its last user executes; the
// computation's inputs are live throughout, wherever the schedule names
// them. Aliasing ops reuse their operand's storage and keep it live for
// as long as they are read themselves:
//
//   - Tuple materializes nothing;
//   - Reshape re-interprets, and DynamicUpdateSlice updates in place,
//     when it is the final user of a buffer the schedule itself
//     produced (the accumulation chains the decomposition emits); of a
//     parameter or constant, or of a value read again later, it is a
//     copy;
//   - CollectivePermuteDone hands over the receive buffer its Start
//     allocated.
//
// Loops account for their carried buffers plus the body's own peak. A
// fusion materializes its result and, while it runs, whatever its body
// holds beyond that. The runtime measures the same quantity
// (Result.ArenaPeakBytes: every kernel and collective result and every
// output is an arena buffer) and is tested to stay under this estimate.
// With nothing outside the arena any more the bound is tight — equal on
// most pinned programs — and what slack remains is deliberate
// over-counting: constants, an Add the runtime folds into a dying
// operand, a loop's carried values counted at both ends. The copy cases
// above, the fusion temporaries, the lifetime of an updated-in-place
// buffer and inputs named late in the schedule are where the estimate
// used to be the optimistic one.

import "math"

// MemoryStats reports the live-byte profile of one computation.
type MemoryStats struct {
	// PeakBytes is the maximum simultaneously live bytes at any point of
	// the schedule.
	PeakBytes int64
	// PeakIndex is the schedule position where the peak occurs.
	PeakIndex int
	// ParameterBytes counts the computation inputs (live throughout).
	ParameterBytes int64
}

// LastUses is the liveness of the schedule: for the instruction at
// each position, the position of the last instruction that reads it
// (its own position when nothing does). Everything that reasons about
// buffer lifetimes reads this one pass — PeakMemory's estimate below,
// the runtime's tape, which recycles a value's buffer at exactly the
// position named here, and the interpreter, which drops the value there.
func (c *Computation) LastUses() []int {
	pos := make(map[*Instruction]int, len(c.instrs))
	last := make([]int, len(c.instrs))
	for i, in := range c.instrs {
		pos[in] = i
		last[i] = i
		for _, op := range in.Operands {
			if p, ok := pos[op]; ok {
				last[p] = i
			}
		}
	}
	return last
}

// PeakMemory estimates the peak live bytes of the computation under its
// current schedule. The byte counts saturate at math.MaxInt64 instead of
// wrapping, so a program naming huge shapes reads as huge.
func PeakMemory(c *Computation) MemoryStats {
	instrs := c.instrs
	pos := make(map[*Instruction]int, len(instrs))
	for i, in := range instrs {
		pos[in] = i
	}
	death := c.LastUses()

	// alloc[i] is the fresh storage instruction i materializes; it is
	// freed after position freeAt[i]. transient[i] is live only while
	// instruction i executes. An instruction that materializes nothing
	// because it reuses an operand's storage names, in owner[i], the
	// instruction whose storage that is, and keeps it alive for as long
	// as it is read itself.
	alloc := make([]int64, len(instrs))
	transient := make([]int64, len(instrs))
	freeAt := make([]int, len(instrs))
	owner := make([]int, len(instrs))
	alias := func(i int, base *Instruction) {
		p, ok := pos[base]
		if !ok {
			return
		}
		owner[i] = owner[p]
		if death[i] > freeAt[owner[i]] {
			freeAt[owner[i]] = death[i]
		}
	}
	// inPlace reports whether instruction i, reusing its operand 0's
	// storage, may: it must be that buffer's last reader, and the
	// buffer the schedule's own.
	inPlace := func(i int, in *Instruction) bool {
		base := in.Operands[0]
		p, ok := pos[base]
		return ok && death[p] == i && base.Op != OpParameter && base.Op != OpConstant
	}
	var params int64
	for i, in := range instrs {
		freeAt[i] = death[i]
		owner[i] = i
		switch in.Op {
		case OpParameter:
			// The inputs exist before the step starts and outlive it,
			// wherever the schedule happens to name them: the sweep
			// starts from their sum.
			params = addBytes(params, in.ByteSize())
		case OpTuple:
			alloc[i] = 0
		case OpCollectivePermuteDone:
			// The start allocated the receive buffer; the done hands it
			// over.
			alias(i, in.Operands[0])
		case OpDynamicUpdateSlice, OpReshape:
			if inPlace(i, in) {
				alias(i, in.Operands[0])
			} else {
				alloc[i] = in.ByteSize()
			}
		case OpFusion:
			alloc[i] = in.ByteSize()
			body := PeakMemory(in.Body)
			if extra := body.PeakBytes - body.ParameterBytes - alloc[i]; extra > 0 {
				transient[i] = extra
			}
		case OpLoop:
			// Carried buffers live in the operands; the body's own
			// temporaries peak inside each iteration.
			alloc[i] = PeakMemory(in.Body).PeakBytes
		default:
			alloc[i] = in.ByteSize()
		}
	}

	// Every running sum below lies between zero and the total of all the
	// storage; a total past math.MaxInt64 is reported as that, saturated.
	total := params
	for i := range instrs {
		total = addBytes(addBytes(total, alloc[i]), transient[i])
	}
	if total == math.MaxInt64 {
		return MemoryStats{PeakBytes: total, ParameterBytes: params}
	}

	// Sweep: +alloc at def, -alloc after freeAt.
	delta := make([]int64, len(instrs)+1)
	for i := range instrs {
		delta[i] += alloc[i]
		delta[freeAt[i]+1] -= alloc[i]
	}
	live, peak := params, params
	peakIdx := 0
	for i := range instrs {
		live += delta[i]
		if live+transient[i] > peak {
			peak = live + transient[i]
			peakIdx = i
		}
	}
	return MemoryStats{PeakBytes: peak, PeakIndex: peakIdx, ParameterBytes: params}
}

// addBytes adds two byte counts, saturating at math.MaxInt64 (both are
// non-negative: ByteSize saturates rather than wraps).
func addBytes(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
