package core

import (
	"fmt"

	"overlap/internal/hlo"
)

// Apply runs the full overlap pipeline on the computation in place:
//
//  1. find decomposable AllGather-Einsum / Einsum-ReduceScatter sites
//     (picking one candidate per einsum with the §5.5 rule),
//  2. gate each site on the cost model when enabled,
//  3. rewrite accepted sites into Looped CollectiveEinsums,
//  4. apply the fusion-friendliness rewrites and accumulation fusion,
//  5. split CollectivePermutes into asynchronous start/done pairs and
//     run the selected scheduler,
//  6. stamp Options.KernelSplitK on every einsum, so the factor the
//     program executes with is part of its text.
//
// With SchedulerNone the collectives are decomposed but left blocking
// (a useful ablation); to keep the baseline program untouched simply do
// not call Apply.
func Apply(c *hlo.Computation, opts Options) (Report, error) {
	var report Report
	if err := opts.Spec.Validate(); err != nil {
		return report, err
	}

	var applyErr error
	c.WithRootPreserved(func() {
		// Gradient bucketing runs first so it consumes the backward
		// pass's ring AllReduces before SplitAllReduce would
		// canonicalize them away.
		if opts.GradBucketBytes > 0 {
			report.Buckets = BucketAllReduces(c, opts.GradBucketBytes)
		}
		if opts.SplitAllReduce {
			CanonicalizeAllReduce(c)
		}
		if opts.RematerializeGathers {
			RematerializeGathers(c)
		}

		var chooser CandidateChooser = FirstChooser{}
		if opts.UseCostModel {
			chooser = CostChooser{Spec: opts.Spec}
		}
		patterns := FindPatterns(c, chooser)
		report.SitesFound = len(patterns)

		for _, p := range patterns {
			d := Evaluate(p, opts)
			report.Decisions = append(report.Decisions, d)
			if opts.UseCostModel && !d.Enable {
				report.SitesRejected++
				continue
			}
			if err := Decompose(c, p, opts); err != nil {
				applyErr = fmt.Errorf("core: decomposing %s at %s: %w", p.Kind, p.Einsum.Name, err)
				return
			}
			report.SitesDecomposed++
		}

		if opts.ConcatToPadMax {
			RewriteConcatToPadMax(c)
		}
		if opts.FuseAddIntoEinsum {
			report.FusionsFormed = FuseAccumulation(c, opts.OverlapFriendlyFusion)
		}

		if opts.Scheduler != SchedulerNone {
			// §5.2: the overlap schedulers consume the memory-minimizing
			// pass's output; their tie-breaks preserve that order.
			if err := ScheduleMinMemory(c); err != nil {
				applyErr = fmt.Errorf("core: min-memory scheduling: %w", err)
				return
			}
			MakeAsync(c)
			var err error
			switch opts.Scheduler {
			case SchedulerBottomUp:
				err = ScheduleBottomUp(c, opts.Spec)
			case SchedulerTopDown:
				err = ScheduleTopDown(c, opts.Spec)
			}
			if err != nil {
				applyErr = fmt.Errorf("core: scheduling: %w", err)
				return
			}
		}
	})
	if applyErr != nil {
		return report, applyErr
	}
	c.Walk(func(in *hlo.Instruction) {
		if in.Op == hlo.OpEinsum {
			in.SplitK = opts.KernelSplitK
		}
	})
	return report, c.Verify()
}
