package core

import (
	"overlap/internal/machine"
)

// Decision is the §5.5 benefit estimate for one site. The feature is
// enabled when the blocking baseline (CompT + CommT) is no faster than
// the overlapped estimate max(CompT, CommRingT) + ExtraT.
type Decision struct {
	Pattern  Pattern
	CompT    float64 // original einsum execution time
	CompDec  float64 // summed partial-einsum time after decomposition
	CommT    float64 // original blocking collective wire time
	CommRing float64 // decomposed transfer time along the logical ring
	ExtraT   float64 // prologue/epilogue transfers, assumed unhidden
	Enable   bool
}

// Evaluate runs the cost model on one site under the given options.
func Evaluate(p Pattern, opts Options) Decision {
	spec := opts.Spec
	d := Decision{Pattern: p}
	d.CompT = spec.InstructionCost(p.Einsum)
	d.CommT = spec.CollectiveTime(p.Collective)

	// Per-step shard transfer: the circulated buffer is the gathered
	// operand's shard (AllGather) or the scattered result shard
	// (ReduceScatter).
	var shardBytes int64
	if p.Kind == AllGatherEinsum {
		shardBytes = p.Collective.Operands[0].ByteSize()
	} else {
		shardBytes = p.Collective.ByteSize()
	}
	step := spec.TransferTime(shardBytes, 1)

	n := p.Ring.N
	bidi := opts.Bidirectional && n%2 == 0
	switch {
	case p.Kind == AllGatherEinsum && bidi:
		// N/2-1 steps with both directions busy; the prologue shift is
		// charged as unhidden extra.
		d.CommRing = float64(n/2-1) * step
		d.ExtraT = step
	case p.Kind == AllGatherEinsum:
		d.CommRing = float64(n-1) * step
	case bidi: // Einsum-ReduceScatter, bidirectional
		d.CommRing = float64(n/2) * step
		d.ExtraT = step // alignment epilogue
	case opts.Unroll && n%2 == 0:
		// Unrolled dual chains: both chains send every unrolled step on
		// the same ring direction, so the wire still carries N shard
		// transfers; the alignment epilogue adds one more.
		d.CommRing = float64(n) * step
		d.ExtraT = step
	default:
		d.CommRing = float64(n) * step
	}

	d.CompDec = decomposedComputeTime(p, opts, bidi)
	d.Enable = d.CompT+d.CommT >= maxf(d.CompDec, d.CommRing)+d.ExtraT
	return d
}

// decomposedComputeTime estimates the summed execution time of the
// partial einsums the Looped CollectiveEinsum emits: the FLOPs are
// conserved, but each partial works on a 1/N (or 2/N, bidirectional)
// slice of one dimension, which can push it down the matrix-unit
// efficiency curve — an effect the enable decision must price in, since
// over-slicing a site makes the "overlapped" program slower than the
// blocking original. (The paper's §5.5 estimate uses the unsliced
// comp_t; we refine it because our machine model, like real matrix
// units, derates small tiles.)
func decomposedComputeTime(p Pattern, opts Options, bidi bool) float64 {
	flops, _ := p.Einsum.EinsumStats()
	n := p.Ring.N
	steps := n
	sliceFactor := n
	if bidi {
		steps = n / 2
		if p.Kind == AllGatherEinsum && p.Case == CaseContracting {
			// Concatenated operands: each step computes a 2/N slice.
			sliceFactor = n / 2
		} else {
			// Two einsums per step, each on a 1/N slice.
			steps = n
		}
	}

	// Rebuild the M/N/K view with the sliced dimension shrunk.
	var side, dim int
	if p.Kind == AllGatherEinsum {
		side, dim = p.Side, p.GatherDim
	} else {
		side, dim = p.SliceSide, p.SliceDim
	}
	full := p.Einsum.Operands[side].Shape[dim]
	if p.Kind == AllGatherEinsum {
		// The circulated shard keeps the pre-gather size.
		full = p.Collective.Shape[p.Collective.CollectiveAxis]
	}
	sliced := full / sliceFactor
	if sliced < 1 {
		sliced = 1
	}
	_, minDim := partialEinsumStats(p, side, dim, sliced)
	perStep := opts.Spec.EinsumTime(flops/int64(steps), 0, minDim)
	return float64(steps) * perStep
}

// partialEinsumStats recomputes the effective matmul dims of the
// pattern's einsum with operand side's dimension dim resized to sliced.
func partialEinsumStats(p Pattern, side, dim, sliced int) (int64, int) {
	spec, err := p.Einsum.ParsedEinsum()
	if err != nil {
		panic(err) // a matched pattern's einsum parsed when it was built
	}
	shapes := [2][]int{
		append([]int(nil), p.Einsum.Operands[0].Shape...),
		append([]int(nil), p.Einsum.Operands[1].Shape...),
	}
	// Labels shared with the other operand must agree; shrink them too.
	label := spec.Inputs[side][dim]
	for s := 0; s < 2; s++ {
		for i := range shapes[s] {
			if spec.Inputs[s][i] == label {
				shapes[s][i] = sliced
			}
		}
	}
	flops, m, n, k, err := spec.MatmulStats(shapes[0], shapes[1])
	if err != nil {
		panic(err) // the same labels resized consistently
	}
	return flops, min(m, n, k)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// CandidateChooser picks which collective to overlap when an einsum has
// several candidates (§5.5, last paragraph).
type CandidateChooser interface {
	Choose(cands []Pattern) Pattern
}

// CostChooser implements the paper's rule: if the einsum is faster than
// every candidate collective, pick the candidate with the smaller
// circulated shard (smaller unhidden prologue/epilogue overhead);
// otherwise pick the collective with the longer estimated time, since
// hiding it buys the most.
type CostChooser struct {
	Spec machine.Spec
}

// Choose implements CandidateChooser.
func (cc CostChooser) Choose(cands []Pattern) Pattern {
	compT := cc.Spec.InstructionCost(cands[0].Einsum)
	// "The Einsum is faster than both collectives" (§5.5): neither
	// transfer can be fully hidden, so the tie-break minimizes the
	// unhidden prologue/epilogue overhead instead.
	einsumFasterThanBoth := true
	for _, p := range cands {
		if compT >= cc.Spec.CollectiveTime(p.Collective) {
			einsumFasterThanBoth = false
		}
	}
	best := cands[0]
	if einsumFasterThanBoth {
		for _, p := range cands[1:] {
			if shardSize(p) < shardSize(best) {
				best = p
			}
		}
		return best
	}
	for _, p := range cands[1:] {
		if cc.Spec.CollectiveTime(p.Collective) > cc.Spec.CollectiveTime(best.Collective) {
			best = p
		}
	}
	return best
}

func shardSize(p Pattern) int64 {
	if p.Kind == AllGatherEinsum {
		return p.Collective.Operands[0].ByteSize()
	}
	return p.Collective.ByteSize()
}

// FirstChooser always keeps the first candidate; used when the cost
// model is disabled.
type FirstChooser struct{}

// Choose implements CandidateChooser.
func (FirstChooser) Choose(cands []Pattern) Pattern { return cands[0] }

var _ CandidateChooser = CostChooser{}
var _ CandidateChooser = FirstChooser{}
