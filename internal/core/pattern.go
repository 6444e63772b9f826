// Package core implements the paper's contribution: decomposing an
// AllGather or ReduceScatter together with its dependent einsum into a
// Looped CollectiveEinsum — a sequence of partial einsums interleaved
// with point-to-point CollectivePermutes (§4–§5.1) — followed by the
// asynchronous CollectivePermuteStart/Done conversion and the
// instruction scheduling that actually hides the transfers (§5.2), the
// loop-unrolling and bidirectional-transfer optimizations (§5.4), the
// fusion-friendliness rewrites (§5.4.3), and the cost model that
// auto-enables the feature per site (§5.5).
package core

import (
	"strings"

	"overlap/internal/hlo"
)

// PatternKind distinguishes the two decomposable collective/einsum
// pairings.
type PatternKind int

const (
	// AllGatherEinsum is a blocking AllGather feeding an einsum operand.
	AllGatherEinsum PatternKind = iota
	// EinsumReduceScatter is an einsum whose (partial-sum) result feeds
	// a blocking ReduceScatter.
	EinsumReduceScatter
)

func (k PatternKind) String() string {
	if k == AllGatherEinsum {
		return "allgather-einsum"
	}
	return "einsum-reducescatter"
}

// AGCase is the AllGather-Einsum sub-case from §5.1, determined by the
// role of the gathered dimension's label in the einsum.
type AGCase int

const (
	// CaseNonContracting (Case 1): the gathered dimension survives into
	// the output and appears only in the gathered operand. Partial
	// results are DynamicUpdateSliced into the final result.
	CaseNonContracting AGCase = iota
	// CaseContracting (Case 2): the gathered dimension is summed away.
	// The other operand is DynamicSliced along the matching contracting
	// dimension and partial results are accumulated with an Addition.
	CaseContracting
	// CaseBatch (Case 3): the gathered dimension is an einsum batch
	// dimension. The other operand is DynamicSliced along its batch
	// dimension and partials are DynamicUpdateSliced into the result.
	CaseBatch
)

func (c AGCase) String() string {
	switch c {
	case CaseNonContracting:
		return "non-contracting"
	case CaseContracting:
		return "contracting"
	default:
		return "batch"
	}
}

// Pattern is one decomposition site: the collective/einsum pair plus the
// pre-computed geometry the rewrite needs.
type Pattern struct {
	Kind PatternKind

	// Einsum is the dependent computation; Collective is the AllGather
	// (operand side) or ReduceScatter (user side).
	Einsum     *hlo.Instruction
	Collective *hlo.Instruction

	// Ring describes the cyclic device groups of the collective.
	Ring RingInfo

	// AllGather-Einsum fields.
	Case      AGCase
	Side      int // einsum operand index fed by the AllGather
	GatherDim int // dimension of the gathered operand
	OtherDim  int // matching dim of the other operand (cases 2, 3), else -1
	OutDim    int // output dim updated per iteration (cases 1, 3), else -1

	// Einsum-ReduceScatter fields.
	ScatterDim int // output dim the ReduceScatter shards
	SliceSide  int // operand carrying the scattered label
	SliceDim   int // dim of that operand to DynamicSlice
}

// RingInfo captures the cyclic structure of a collective's device
// groups: every group must be an arithmetic progression in device ids
// with a common stride, so a device's ring position is computable as
// (pid / Stride) mod N — the closed form the decomposition's dynamic
// offsets use.
type RingInfo struct {
	N      int
	Stride int
	Groups [][]int
}

// RingFromGroups validates the group structure and returns its ring
// description. ok is false when the groups cannot be expressed as a
// common-stride ring (the decomposition then leaves the site alone).
func RingFromGroups(groups [][]int) (RingInfo, bool) {
	if len(groups) == 0 || len(groups[0]) == 0 {
		return RingInfo{}, false
	}
	n := len(groups[0])
	if n == 1 {
		return RingInfo{}, false // degenerate: nothing to decompose
	}
	stride := 0
	if n > 1 {
		stride = groups[0][1] - groups[0][0]
	}
	if stride <= 0 {
		return RingInfo{}, false
	}
	for _, g := range groups {
		if len(g) != n {
			return RingInfo{}, false
		}
		for k, dev := range g {
			if k > 0 && g[k]-g[k-1] != stride {
				return RingInfo{}, false
			}
			// The position extraction identity the DynOffsets rely on.
			if (dev/stride)%n != k {
				return RingInfo{}, false
			}
		}
	}
	return RingInfo{N: n, Stride: stride, Groups: groups}, true
}

// PosOffset returns the symbolic offset ((pos + add) mod N) * scale
// where pos is the device's ring position.
func (r RingInfo) PosOffset(add, scale int) hlo.DynOffset {
	return hlo.DynOffset{PIDFactor: 1, Div: r.Stride, Add: add, Mod: r.N, Scale: scale}
}

// ShiftPairs returns the source→target pairs of a cyclic shift by delta
// ring positions within every group.
func (r RingInfo) ShiftPairs(delta int) []hlo.SourceTargetPair {
	var pairs []hlo.SourceTargetPair
	for _, g := range r.Groups {
		for k, src := range g {
			dst := g[((k+delta)%r.N+r.N)%r.N]
			pairs = append(pairs, hlo.SourceTargetPair{Source: src, Target: dst})
		}
	}
	return pairs
}

// FindPatterns scans the computation for decomposable sites. When an
// einsum has several collective candidates (two gathered operands, or a
// gathered operand plus a ReduceScatter user), chooseCandidate keeps the
// one the paper's §5.5 rule prefers and the others are left blocking.
func FindPatterns(c *hlo.Computation, chooser CandidateChooser) []Pattern {
	byEinsum := map[*hlo.Instruction][]Pattern{}
	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		switch in.Op {
		case hlo.OpAllGather:
			for _, u := range in.Users() {
				if p, ok := matchAllGatherEinsum(in, u); ok {
					byEinsum[u] = append(byEinsum[u], p)
				}
			}
		case hlo.OpReduceScatter:
			if p, ok := matchEinsumReduceScatter(in); ok {
				byEinsum[p.Einsum] = append(byEinsum[p.Einsum], p)
			}
		}
	}
	var out []Pattern
	for i := 0; i < c.NumInstructions(); i++ {
		cands := byEinsum[c.At(i)]
		if len(cands) == 0 {
			continue
		}
		if len(cands) == 1 {
			out = append(out, cands[0])
			continue
		}
		out = append(out, chooser.Choose(cands))
	}
	return out
}

func matchAllGatherEinsum(ag, user *hlo.Instruction) (Pattern, bool) {
	if user.Op != hlo.OpEinsum || ag.NumUsers() != 1 {
		return Pattern{}, false
	}
	ring, ok := RingFromGroups(ag.Groups)
	if !ok {
		return Pattern{}, false
	}
	spec, err := user.ParsedEinsum()
	if err != nil || len(spec.Inputs) != 2 {
		return Pattern{}, false
	}
	side := -1
	for i, op := range user.Operands {
		if op == ag {
			side = i
		}
	}
	if side < 0 {
		return Pattern{}, false
	}
	gDim := ag.CollectiveAxis
	label := spec.Inputs[side][gDim]
	other := spec.Inputs[1-side]
	inOutput := strings.IndexByte(spec.Output, label)
	inOther := strings.IndexByte(other, label)

	p := Pattern{
		Kind:       AllGatherEinsum,
		Einsum:     user,
		Collective: ag,
		Ring:       ring,
		Side:       side,
		GatherDim:  gDim,
		OtherDim:   -1,
		OutDim:     -1,
		ScatterDim: -1,
	}
	switch {
	case inOutput >= 0 && inOther < 0:
		p.Case = CaseNonContracting
		p.OutDim = inOutput
	case inOutput < 0 && inOther >= 0:
		p.Case = CaseContracting
		p.OtherDim = inOther
	case inOutput >= 0 && inOther >= 0:
		p.Case = CaseBatch
		p.OtherDim = inOther
		p.OutDim = inOutput
	default:
		// Label summed away but absent from the other operand: the
		// gather cannot be turned into per-shard partial products.
		return Pattern{}, false
	}
	// The shard circulates whole, so the gathered dim of the operand
	// must split evenly (guaranteed by AllGather shape inference).
	return p, true
}

func matchEinsumReduceScatter(rs *hlo.Instruction) (Pattern, bool) {
	ein := rs.Operands[0]
	if ein.Op != hlo.OpEinsum || ein.NumUsers() != 1 {
		return Pattern{}, false
	}
	ring, ok := RingFromGroups(rs.Groups)
	if !ok {
		return Pattern{}, false
	}
	spec, err := ein.ParsedEinsum()
	if err != nil || len(spec.Inputs) != 2 {
		return Pattern{}, false
	}
	sDim := rs.CollectiveAxis
	label := spec.Output[sDim]
	inL := strings.IndexByte(spec.Inputs[0], label)
	inR := strings.IndexByte(spec.Inputs[1], label)
	// The paper requires the scattered dim to be non-contracting: it
	// must come from exactly one operand (a batch label would appear in
	// both).
	var side, dim int
	switch {
	case inL >= 0 && inR < 0:
		side, dim = 0, inL
	case inR >= 0 && inL < 0:
		side, dim = 1, inR
	default:
		return Pattern{}, false
	}
	if ein.Operands[side].Shape[dim]%ring.N != 0 {
		return Pattern{}, false
	}
	return Pattern{
		Kind:       EinsumReduceScatter,
		Einsum:     ein,
		Collective: rs,
		Ring:       ring,
		Side:       -1,
		GatherDim:  -1,
		OtherDim:   -1,
		OutDim:     -1,
		ScatterDim: sDim,
		SliceSide:  side,
		SliceDim:   dim,
	}, true
}
