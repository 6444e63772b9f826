package core

import (
	"fmt"
	"strings"

	"overlap/internal/hlo"
)

// Compiler-hygiene passes: common-subexpression elimination and
// algebraic simplification. They run standalone (and in the fuzz
// harness); the overlap pipeline itself never needs them, but graphs
// assembled by autodiff or by hand often do — adjoint construction in
// particular produces Add-with-zero chains and duplicate transposes.

// CSE deduplicates structurally identical instructions: same opcode,
// same operands (after earlier dedup) and same attributes. Collectives
// are deduplicated too — two identical AllGathers of the same operand
// are one gather (the inverse of RematerializeGathers, for callers that
// prefer memory over sites). Parameters and constants with distinct
// literals stay distinct. Returns the number of instructions removed.
func CSE(c *hlo.Computation) int {
	removed := 0
	c.WithRootPreserved(func() {
		seen := map[string]*hlo.Instruction{}
		for _, in := range c.Instructions() {
			if in.Op == hlo.OpParameter {
				continue
			}
			key := cseKey(in)
			if prev, ok := seen[key]; ok {
				c.ReplaceAllUsesWith(in, prev)
				removed++
				continue
			}
			seen[key] = in
		}
		c.ScheduleStableTopological()
		c.RemoveDeadCode()
	})
	return removed
}

// cseKey builds a structural fingerprint. Operand identity uses pointer
// addresses, which is sound because we scan in schedule order: operands
// are already canonicalized when their users are keyed.
func cseKey(in *hlo.Instruction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", in.Op)
	for _, op := range in.Operands {
		fmt.Fprintf(&b, "%p,", op)
	}
	fmt.Fprintf(&b, "|%v|%s|%d|%d|%v%v%g|%v%v|%v%v|%v|%v|%v|%d|%d|%d",
		in.Shape, in.EinsumSpec, in.SplitK, in.Axis,
		in.PadLow, in.PadHigh, in.PadValue,
		in.Starts, in.Limits,
		in.Offsets, in.SliceSizes,
		in.Perm, in.Groups, in.Pairs,
		in.CollectiveAxis, in.TripCount, in.ResultIndex)
	if in.Literal != nil {
		fmt.Fprintf(&b, "|%v", in.Literal.Data())
	}
	if in.Body != nil {
		fmt.Fprintf(&b, "|body:%p", in.Body) // bodies are never shared
	}
	return b.String()
}

// Simplify applies local algebraic rewrites to a fixed point:
//
//	copy(copy(x))            → copy(x)
//	reshape(reshape(x))      → reshape(x)
//	transpose(transpose(x))  → composed transpose (identity removed)
//	add(x, zero) / add(zero, x) → x (via copy to keep a node)
//	concat(x)                → x
//	slice covering all of x  → x
//	pad with no padding      → x
//	reshape to the same shape → x
//
// Returns the number of rewrites applied.
func Simplify(c *hlo.Computation) int {
	total := 0
	for {
		n := simplifyOnce(c)
		total += n
		if n == 0 {
			return total
		}
	}
}

func simplifyOnce(c *hlo.Computation) int {
	rewrites := 0
	c.WithRootPreserved(func() {
		replace := func(in, with *hlo.Instruction) {
			c.ReplaceAllUsesWith(in, with)
			rewrites++
		}
		for _, in := range c.Instructions() {
			switch in.Op {
			case hlo.OpCopy:
				if src := in.Operands[0]; src.Op == hlo.OpCopy {
					in.ReplaceOperand(src, src.Operands[0])
					rewrites++
				}
			case hlo.OpReshape:
				src := in.Operands[0]
				if src.Op == hlo.OpReshape {
					in.ReplaceOperand(src, src.Operands[0])
					rewrites++
					continue
				}
				if sameIntSlice(in.Shape, src.Shape) {
					replace(in, src)
				}
			case hlo.OpTranspose:
				src := in.Operands[0]
				if src.Op == hlo.OpTranspose {
					composed := make([]int, len(in.Perm))
					for i, p := range in.Perm {
						composed[i] = src.Perm[p]
					}
					if isIdentityPerm(composed) {
						replace(in, src.Operands[0])
					}
					continue
				}
				if isIdentityPerm(in.Perm) {
					replace(in, src)
				}
			case hlo.OpAdd:
				a, b := in.Operands[0], in.Operands[1]
				switch {
				case a.Op == hlo.OpZero:
					replace(in, b)
				case b.Op == hlo.OpZero:
					replace(in, a)
				}
			case hlo.OpConcat:
				if len(in.Operands) == 1 {
					replace(in, in.Operands[0])
				}
			case hlo.OpSlice:
				if sameIntSlice(in.Shape, in.Operands[0].Shape) && allZero(in.Starts) {
					replace(in, in.Operands[0])
				}
			case hlo.OpPad:
				if allZero(in.PadLow) && allZero(in.PadHigh) {
					replace(in, in.Operands[0])
				}
			}
		}
		c.ScheduleStableTopological()
		c.RemoveDeadCode()
	})
	return rewrites
}

func sameIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allZero(a []int) bool {
	for _, v := range a {
		if v != 0 {
			return false
		}
	}
	return true
}

func isIdentityPerm(p []int) bool {
	for i, v := range p {
		if v != i {
			return false
		}
	}
	return true
}
