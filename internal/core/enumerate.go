package core

import (
	"fmt"
	"strings"

	"overlap/internal/hlo"
	"overlap/internal/machine"
)

// Fingerprint returns a stable textual identity of every knob that
// changes what Apply emits: the knobs themselves, as autotune names its
// candidates. The machine spec is not a knob — it prices decisions but,
// with UseCostModel off, does not alter the rewrite — so autotune can key
// candidates by program shape and spec separately.
func (o Knobs) Fingerprint() string {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return fmt.Sprintf("sched=%s unroll=%d bidi=%d rolled=%d cost=%d fuse=%d friendly=%d remat=%d splitar=%d concat=%d bucket=%d ksplit=%d",
		o.Scheduler, b(o.Unroll), b(o.Bidirectional), b(o.Rolled), b(o.UseCostModel),
		b(o.FuseAddIntoEinsum), b(o.OverlapFriendlyFusion), b(o.RematerializeGathers),
		b(o.SplitAllReduce), b(o.ConcatToPadMax), o.GradBucketBytes, o.KernelSplitK)
}

// EnumerateOptions returns the distinct pipeline configurations worth
// searching for programs on a ring of ringSize devices — the candidate
// space of the autotuner. Knob combinations that cannot change the
// emitted program are pruned:
//
//   - Bidirectional on an odd ring falls back to unidirectional, so only
//     even rings enumerate it;
//   - Rolled ignores Unroll, Bidirectional and the schedulers (start/done
//     pairs cannot straddle the loop back-edge), so exactly one rolled
//     candidate is emitted;
//   - OverlapFriendlyFusion only matters once FuseAddIntoEinsum is on;
//   - RematerializeGathers is a no-op unless c (optional) contains a
//     multi-consumer AllGather;
//   - SplitAllReduce and GradBucketBytes only act on ring AllReduces, so
//     they are enumerated only when c contains one (the training step's
//     DDP gradient reductions being the motivating case), and never
//     together in one candidate: bucketing consumes the gradient
//     AllReduces first, leaving the split pass nothing to do;
//   - KernelSplitK factors are enumerated only when c has a skinny
//     einsum site (few decomposed output rows against a large
//     contraction) — the only shape the kernel engine's split-K gate
//     accepts, so elsewhere every factor executes identically.
//
// Every candidate has UseCostModel off: the caller's search *replaces*
// the per-site analytic gate with a whole-program decision. The blocking
// baseline (do not call Apply at all) is not representable as an Options
// value and must be added by the caller.
//
// The order of the returned slice is part of the contract: the rolled
// candidate first, then scheduler × unroll × bidirectional × fusion ×
// remat × reduce × split-K with the rightmost varying fastest. The
// autotuner dedups and breaks ranking ties in this order — the first
// candidate to print a program is its unique representative, the one
// that is measured and whose name a cached decision records — so
// reordering the loops changes decisions, not just their listing. It is
// deliberately not the pipeline's stage order (see pipeline.go); the
// search memoises on stage keys whatever order candidates arrive in.
func EnumerateOptions(spec machine.Spec, ringSize int, c *hlo.Computation) []Options {
	base := Options{Spec: spec}

	rolled := base
	rolled.Rolled = true
	out := []Options{rolled}

	bidis := []bool{false}
	if ringSize%2 == 0 && ringSize > 1 {
		bidis = append(bidis, true)
	}
	remats := []bool{false}
	if c == nil || hasMultiConsumerGather(c) {
		remats = append(remats, true)
	}
	type fusion struct{ fuse, friendly bool }
	fusions := []fusion{{false, false}, {true, false}, {true, true}}

	// (splitar, bucket) pairs: the plain program, the §2.1 identity
	// split, and two gradient-bucket sizes bracketing the
	// start-early/amortize-latency tradeoff.
	type reduceKnob struct {
		split  bool
		bucket int64
	}
	reduces := []reduceKnob{{false, 0}}
	if c != nil && hasRingAllReduce(c) {
		reduces = append(reduces, reduceKnob{true, 0},
			reduceKnob{false, 8 << 10}, reduceKnob{false, 512 << 10})
	}
	splitKs := []int{0}
	if c != nil && hasSkinnySite(c, ringSize) {
		splitKs = append(splitKs, 2, 4)
	}

	for _, sched := range []SchedulerKind{SchedulerBottomUp, SchedulerTopDown, SchedulerNone} {
		for _, unroll := range []bool{false, true} {
			for _, bidi := range bidis {
				for _, fu := range fusions {
					for _, remat := range remats {
						for _, red := range reduces {
							for _, ks := range splitKs {
								o := base
								o.Scheduler = sched
								o.Unroll = unroll
								o.Bidirectional = bidi
								o.FuseAddIntoEinsum = fu.fuse
								o.OverlapFriendlyFusion = fu.friendly
								o.RematerializeGathers = remat
								o.SplitAllReduce = red.split
								o.GradBucketBytes = red.bucket
								o.KernelSplitK = ks
								out = append(out, o)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// hasRingAllReduce reports whether any AllReduce's groups form a ring
// the bucketing/split passes could lower.
func hasRingAllReduce(c *hlo.Computation) bool {
	for i := 0; i < c.NumInstructions(); i++ {
		if in := c.At(i); in.Op == hlo.OpAllReduce {
			if _, ok := RingFromGroups(in.Groups); ok {
				return true
			}
		}
	}
	return false
}

// hasMultiConsumerGather reports whether any AllGather feeds more than
// one consumer — the only shape RematerializeGathers rewrites.
func hasMultiConsumerGather(c *hlo.Computation) bool {
	for i := 0; i < c.NumInstructions(); i++ {
		if in := c.At(i); in.Op == hlo.OpAllGather && in.NumUsers() > 1 {
			return true
		}
	}
	return false
}

// Skinny-site thresholds, mirroring the kernel engine's split-K gate:
// a site is worth a split-K candidate when its decomposed partials have
// fewer output rows than the engine splits rows-wise and a contraction
// long enough to cut into worthwhile ranges.
const (
	skinnySiteMaxRows = 64
	skinnySiteMinK    = 256
)

// hasSkinnySite reports whether any einsum's output is row-starved
// relative to its contraction once decomposed over the ring — the
// shape where split-K factors can change execution at all. Deliberately
// conservative: the miniature programs used by golden and serving tests
// have tiny contractions and never enumerate the factor.
func hasSkinnySite(c *hlo.Computation, ringSize int) bool {
	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		if in.Op != hlo.OpEinsum || len(in.Operands) != 2 {
			continue
		}
		spec, err := in.ParsedEinsum()
		if err != nil || len(spec.Inputs) != 2 {
			continue
		}
		lhs, out := spec.Inputs[0], spec.Output
		rows, k := 1, 1
		for i := 0; i < len(out); i++ {
			if strings.IndexByte(lhs, out[i]) >= 0 {
				rows *= in.Shape[i]
			}
		}
		for i := 0; i < len(lhs); i++ {
			if strings.IndexByte(out, lhs[i]) < 0 {
				k *= in.Operands[0].Shape[i]
			}
		}
		if ringSize > 1 {
			// The decomposed loop computes one ring-sized shard of the
			// output rows per partial einsum.
			rows = (rows + ringSize - 1) / ringSize
		}
		if rows < skinnySiteMaxRows && k >= skinnySiteMinK {
			return true
		}
	}
	return false
}
