package core

import (
	"math"

	"overlap/internal/hlo"
)

// fusableProducer lists the ops that may be folded into a fusion region
// alongside an einsum: cheap element-wise / data-movement producers that
// XLA's emitters inline into the consuming kernel. Collectives and
// asynchronous ops are never fusable, so fusions stay device-local.
func fusableProducer(op hlo.OpCode) bool {
	switch op {
	case hlo.OpDynamicSlice, hlo.OpSlice, hlo.OpConcat, hlo.OpPad,
		hlo.OpMax, hlo.OpAdd, hlo.OpReshape, hlo.OpZero,
		hlo.OpDynamicUpdateSlice, hlo.OpCopy, hlo.OpEinsum:
		return true
	}
	return false
}

// FuseAccumulation mirrors XLA's fusion pass on the shapes the
// decomposition emits: each result-update anchor (an Add or a
// DynamicUpdateSlice) absorbs its cheap producers — operand slicing,
// concatenation, padding, the partial einsum itself — into one fused
// kernel, eliminating the intermediate memory traffic. At most one
// einsum joins a region (kernels hold a single matrix contraction).
//
// When a region could absorb either of two einsums, the §5.4.3
// heuristic (overlapFriendly) prefers the one that already depends on
// an asynchronous CollectivePermuteDone: the other einsum then stays
// independent and can execute during the transfer (Fig 11b). With
// overlapFriendly false the first candidate in operand order is taken,
// reproducing the Fig 11a regression. In the pipeline the fuse stage
// runs before the async stage, so an untransformed input has no Done to
// prefer (see Options.OverlapFriendlyFusion).
//
// It returns the number of fusion nodes formed.
func FuseAccumulation(c *hlo.Computation, overlapFriendly bool) int {
	formed := 0
	c.WithRootPreserved(func() {
		taken := map[*hlo.Instruction]bool{}
		instrs := c.Instructions()
		// Reverse schedule order so the last update of a chain anchors the
		// whole per-iteration block.
		for i := len(instrs) - 1; i >= 0; i-- {
			anchor := instrs[i]
			if taken[anchor] {
				continue
			}
			if anchor.Op != hlo.OpAdd && anchor.Op != hlo.OpDynamicUpdateSlice {
				continue
			}
			region := growRegion(anchor, taken, overlapFriendly)
			if len(region) < 2 {
				continue
			}
			if fuseRegion(c, anchor, region) {
				for m := range region {
					taken[m] = true
				}
				formed++
			}
		}
		c.ScheduleStableTopological()
		c.RemoveDeadCode()
	})
	return formed
}

// growRegion expands upward from anchor over fusable producers whose
// users all lie inside the region, admitting at most one einsum.
func growRegion(anchor *hlo.Instruction, taken map[*hlo.Instruction]bool, overlapFriendly bool) map[*hlo.Instruction]bool {
	region := map[*hlo.Instruction]bool{anchor: true}
	einsumChosen := anchor.Op == hlo.OpEinsum
	var einsumBanned map[*hlo.Instruction]bool

	for {
		var einsumCands []*hlo.Instruction
		var added bool
		for member := range region {
			for _, op := range member.Operands {
				if region[op] || taken[op] || !fusableProducer(op.Op) {
					continue
				}
				// Stay within the anchor's fusion scope (one loop
				// iteration of a decomposed collective-einsum).
				if op.Group != anchor.Group {
					continue
				}
				if !allUsersIn(op, region) {
					continue
				}
				if op.Op == hlo.OpEinsum {
					if !einsumChosen && !einsumBanned[op] {
						einsumCands = append(einsumCands, op)
					}
					continue
				}
				region[op] = true
				added = true
			}
		}
		if len(einsumCands) > 0 {
			chosen := einsumCands[0]
			if overlapFriendly {
				for _, cand := range einsumCands {
					if dependsOnDone(cand, 8) {
						chosen = cand
						break
					}
				}
			}
			region[chosen] = true
			einsumChosen = true
			if einsumBanned == nil {
				einsumBanned = map[*hlo.Instruction]bool{}
			}
			for _, cand := range einsumCands {
				if cand != chosen {
					einsumBanned[cand] = true
				}
			}
			added = true
		}
		if !added {
			return region
		}
	}
}

func allUsersIn(in *hlo.Instruction, region map[*hlo.Instruction]bool) bool {
	for _, u := range in.Users() {
		if !region[u] {
			return false
		}
	}
	return in.NumUsers() > 0
}

// dependsOnDone reports whether in transitively depends on a
// CollectivePermuteDone within the given depth.
func dependsOnDone(in *hlo.Instruction, depth int) bool {
	if depth == 0 {
		return false
	}
	for _, op := range in.Operands {
		if op.Op == hlo.OpCollectivePermuteDone {
			return true
		}
		if fusableProducer(op.Op) && dependsOnDone(op, depth-1) {
			return true
		}
	}
	return false
}

// fuseRegion replaces the region rooted at anchor with a fusion node
// whose body re-creates the member instructions over parameters for the
// external operands.
func fuseRegion(c *hlo.Computation, anchor *hlo.Instruction, region map[*hlo.Instruction]bool) bool {
	members := make([]*hlo.Instruction, 0, len(region))
	for i := 0; i < c.NumInstructions(); i++ {
		if in := c.At(i); region[in] {
			members = append(members, in)
		}
	}
	var externals []*hlo.Instruction
	extIndex := map[*hlo.Instruction]int{}
	for _, m := range members {
		for _, op := range m.Operands {
			if region[op] {
				continue
			}
			if _, ok := extIndex[op]; !ok {
				extIndex[op] = len(externals)
				externals = append(externals, op)
			}
		}
	}

	body := hlo.NewComputation("fused." + anchor.Name)
	mapping := map[*hlo.Instruction]*hlo.Instruction{}
	for i, ext := range externals {
		mapping[ext] = body.Parameter(i, ext.Name+".p", ext.Shape)
	}
	for _, m := range members {
		// The member's attributes are immutable, so the body shares them.
		inner := &hlo.Instruction{
			Op:         m.Op,
			Name:       m.Name + ".f",
			Shape:      append([]int(nil), m.Shape...),
			EinsumSpec: m.EinsumSpec,
			SplitK:     m.SplitK,
			Attrs:      m.Attrs,
		}
		for _, op := range m.Operands {
			repl, ok := mapping[op]
			if !ok {
				return false // region ordering bug; bail out safely
			}
			inner.Operands = append(inner.Operands, repl)
		}
		mapping[m] = body.AddBuilt(inner)
	}

	fusion := c.Fusion("fusion."+anchor.Name, body, externals...)
	c.ReplaceAllUsesWith(anchor, fusion)
	return true
}

// RewriteConcatToPadMax applies the §5.4.3 fusion-friendliness rewrite:
// a two-operand Concat feeding an einsum is replaced by
// Max(PadHigh(a), PadLow(b)) with -Inf fill, which the fusion pass can
// then fold into the einsum kernel. Returns the number of rewrites.
func RewriteConcatToPadMax(c *hlo.Computation) int {
	rewritten := 0
	c.WithRootPreserved(func() {
		for _, in := range c.Instructions() {
			if in.Op != hlo.OpConcat || len(in.Operands) != 2 {
				continue
			}
			onlyEinsumUsers := in.NumUsers() > 0
			for _, u := range in.Users() {
				if u.Op != hlo.OpEinsum {
					onlyEinsumUsers = false
				}
			}
			if !onlyEinsumUsers {
				continue
			}
			a, b := in.Operands[0], in.Operands[1]
			dim := in.Axis
			rank := len(in.Shape)
			zero := make([]int, rank)
			highA := make([]int, rank)
			highA[dim] = b.Shape[dim]
			lowB := make([]int, rank)
			lowB[dim] = a.Shape[dim]
			negInf := math.Inf(-1)
			pa := c.Pad(a, zero, highA, negInf)
			pb := c.Pad(b, lowB, zero, negInf)
			mx := c.Max(pa, pb)
			c.ReplaceAllUsesWith(in, mx)
			rewritten++
		}
		c.ScheduleStableTopological()
		c.RemoveDeadCode()
	})
	return rewritten
}

// SwapReshapeConcat applies the second §5.4.3 fusion-friendliness
// rewrite: Concat(Reshape(a), Reshape(b), ...) becomes
// Reshape(Concat(a, b, ...)) when every operand reshape only reshapes
// the non-concatenated suffix identically — moving the reshape past the
// concatenation lets the concatenation fuse with the einsum it feeds.
// The legality condition here is the simple common case: all reshapes
// share the input and output rank pattern and the concat axis maps to
// the same leading dimension. Returns the number of rewrites.
func SwapReshapeConcat(c *hlo.Computation) int {
	rewritten := 0
	c.WithRootPreserved(func() {
		for _, in := range c.Instructions() {
			if in.Op != hlo.OpConcat || len(in.Operands) < 2 {
				continue
			}
			ok := true
			var innerRank int
			for i, op := range in.Operands {
				if op.Op != hlo.OpReshape || op.NumUsers() != 1 {
					ok = false
					break
				}
				if i == 0 {
					innerRank = len(op.Operands[0].Shape)
				} else if len(op.Operands[0].Shape) != innerRank {
					ok = false
					break
				}
			}
			// Only the leading-axis concat with leading-dim-preserving
			// reshapes is handled: reshape [a, rest...] -> [a, rest'...].
			if !ok || in.Axis != 0 || innerRank == 0 {
				continue
			}
			for _, op := range in.Operands {
				if op.Operands[0].Shape[0] != op.Shape[0] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			inners := make([]*hlo.Instruction, len(in.Operands))
			for i, op := range in.Operands {
				inners[i] = op.Operands[0]
			}
			cat := c.Concat(0, inners...)
			out := c.Reshape(cat, in.Shape...)
			c.ReplaceAllUsesWith(in, out)
			rewritten++
		}
		c.ScheduleStableTopological()
		c.RemoveDeadCode()
	})
	return rewritten
}

// SwapReshapeSlice applies the third §5.4.3 rewrite: Slice(Reshape(x))
// becomes Reshape(Slice(x)) when the slice only restricts the leading
// dimension and the reshape preserves it — enabling the
// result-accumulation post-processing of the Einsum-ReduceScatter case
// to fuse. Returns the number of rewrites.
func SwapReshapeSlice(c *hlo.Computation) int {
	rewritten := 0
	c.WithRootPreserved(func() {
		for _, in := range c.Instructions() {
			if in.Op != hlo.OpSlice {
				continue
			}
			rs := in.Operands[0]
			if rs.Op != hlo.OpReshape || rs.NumUsers() != 1 {
				continue
			}
			src := rs.Operands[0]
			if len(src.Shape) == 0 || len(rs.Shape) == 0 || src.Shape[0] != rs.Shape[0] {
				continue
			}
			// The slice must be full on every dim except the leading one.
			full := true
			for d := 1; d < len(in.Shape); d++ {
				if in.Starts[d] != 0 || in.Limits[d] != rs.Shape[d] {
					full = false
					break
				}
			}
			if !full {
				continue
			}
			starts := make([]int, len(src.Shape))
			limits := append([]int(nil), src.Shape...)
			starts[0] = in.Starts[0]
			limits[0] = in.Limits[0]
			sliced := c.Slice(src, starts, limits)
			out := c.Reshape(sliced, in.Shape...)
			c.ReplaceAllUsesWith(in, out)
			rewritten++
		}
		c.ScheduleStableTopological()
		c.RemoveDeadCode()
	})
	return rewritten
}
