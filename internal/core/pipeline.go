package core

import (
	"fmt"

	"overlap/internal/hlo"
)

// The stage table below is the pipeline: Apply runs its entries in
// order and does nothing else, and there is no other implementation of
// any pass.
//
//	pre        GradBucketBytes, SplitAllReduce, RematerializeGathers
//	decompose  Rolled, Unroll, Bidirectional, UseCostModel
//	fuse       ConcatToPadMax, FuseAddIntoEinsum, OverlapFriendlyFusion
//	async      Scheduler (only whether it is SchedulerNone)
//	order      Scheduler
//	stamp      KernelSplitK
//
// Each stage declares the knobs it reads, whether it is the identity
// for a given Options, and its body; what a stage emits is a function
// of its input program, the ambient machine Spec and the knobs it reads
// — its key (Key) — and of nothing else. On narrows those declarations
// to one input program where a stage's `on` rule can tell exactly that
// a knob cannot act on it, or that the stage has nothing to rewrite in
// it (two rules today: fuse and decompose). Each stage closes its own
// WithRootPreserved section, so a stage boundary is a legal
// hlo.Computation.Clone point (Clone carries the root and the id and
// fusion-group counters). Together these let a search over many Options
// run each stage once per (input program, key) and clone the result for
// every continuation, which is what autotune's stage 1 does.
//
// To add a knob, touch three places: a field of Knobs (options.go), its
// term in Fingerprint (enumerate.go), and the reads of the one stage
// whose body reads it (Scheduler, read by async and order, is the one
// exception). The guard test in stage_test.go fails while any of them is
// missing: a knob no stage claims would silently alias two candidates of
// a search. A program-aware rule (on) must be exact: stage_test.go runs
// every stage over the corpus and fails when two Options with equal
// keys, or a stage that calls itself the identity, leave an input in
// different states.

// Stage indices, in pipeline order.
const (
	// StagePre rewrites the blocking collectives themselves before any
	// site is matched.
	StagePre = iota
	// StageDecompose matches the collective/einsum sites and rewrites
	// the accepted ones into Looped CollectiveEinsums.
	StageDecompose
	// StageFuse applies the fusion-friendliness rewrite and accumulation
	// fusion.
	StageFuse
	// StageAsync puts the program in the memory-minimizing order and
	// splits the CollectivePermutes into asynchronous start/done pairs —
	// the one program every overlap scheduler orders.
	StageAsync
	// StageOrder runs the selected scheduler. It adds and removes
	// nothing: its whole effect is the instruction order (Order), which
	// a search can therefore keep beside the asynchronous program
	// instead of in a copy of it.
	StageOrder
	// StageStamp writes the kernel split-K factor on every einsum. It
	// changes one attribute of instructions that already exist — no
	// structure, no schedule, nothing the machine model prices — so a
	// search may rank the order stage's output and stamp only the
	// programs it goes on to execute.
	StageStamp
	numStages
)

// Stage is one entry of the pipeline.
type Stage struct {
	Name string
	// reads copies the knobs the body reads from o into key.
	reads func(o Options, key *Knobs)
	// identity reports that the body leaves every program untouched
	// under o; nil means it never statically does.
	identity func(o Options) bool
	// on narrows reads and identity to the input program c (see On);
	// nil means the declarations hold as they are on every program.
	on func(s Stage, c *hlo.Computation) Stage
	// body is the stage's work, run with the root preserved.
	body func(c *hlo.Computation, o Options, report *Report) error
}

var stages = [numStages]Stage{
	StagePre: {
		Name: "pre",
		reads: func(o Options, key *Knobs) {
			key.GradBucketBytes = o.GradBucketBytes
			key.SplitAllReduce = o.SplitAllReduce
			key.RematerializeGathers = o.RematerializeGathers
		},
		identity: func(o Options) bool {
			return o.GradBucketBytes <= 0 && !o.SplitAllReduce && !o.RematerializeGathers
		},
		body: func(c *hlo.Computation, o Options, report *Report) error {
			// Gradient bucketing runs first so it consumes the backward
			// pass's ring AllReduces before SplitAllReduce would
			// canonicalize them away.
			if o.GradBucketBytes > 0 {
				report.Buckets = BucketAllReduces(c, o.GradBucketBytes)
			}
			if o.SplitAllReduce {
				CanonicalizeAllReduce(c)
			}
			if o.RematerializeGathers {
				RematerializeGathers(c)
			}
			return nil
		},
	},
	StageDecompose: {
		Name: "decompose",
		reads: func(o Options, key *Knobs) {
			key.Rolled = o.Rolled
			key.Unroll = o.Unroll
			key.Bidirectional = o.Bidirectional
			key.UseCostModel = o.UseCostModel
		},
		on: func(s Stage, c *hlo.Computation) Stage {
			// A chooser only picks among one einsum's several sites, so a
			// program where FirstChooser finds none has none under any:
			// the body matches nothing and rewrites nothing.
			if len(FindPatterns(c, FirstChooser{})) == 0 {
				s.identity = func(Options) bool { return true }
			}
			return s
		},
		body: func(c *hlo.Computation, o Options, report *Report) error {
			// Find the decomposable AllGather-Einsum / Einsum-ReduceScatter
			// sites (one candidate per einsum, by the §5.5 rule), gate each
			// on the cost model when enabled, and rewrite the accepted ones.
			var chooser CandidateChooser = FirstChooser{}
			if o.UseCostModel {
				chooser = CostChooser{Spec: o.Spec}
			}
			patterns := FindPatterns(c, chooser)
			report.SitesFound = len(patterns)

			for _, p := range patterns {
				d := Evaluate(p, o)
				report.Decisions = append(report.Decisions, d)
				if o.UseCostModel && !d.Enable {
					report.SitesRejected++
					continue
				}
				if err := Decompose(c, p, o); err != nil {
					return fmt.Errorf("core: decomposing %s at %s: %w", p.Kind, p.Einsum.Name, err)
				}
				report.SitesDecomposed++
			}
			return nil
		},
	},
	StageFuse: {
		Name:     "fuse",
		reads:    readFuse,
		identity: func(o Options) bool { return !o.ConcatToPadMax && !o.FuseAddIntoEinsum },
		on: func(s Stage, c *hlo.Computation) Stage {
			// The §5.4.3 operand choice prefers an einsum that depends on
			// a CollectivePermuteDone (dependsOnDone), and only the async
			// stage, which runs later, makes one: on a program without one
			// both settings pick the first operand.
			if !holdsDone(c) {
				s.reads = func(o Options, key *Knobs) {
					readFuse(o, key)
					key.OverlapFriendlyFusion = false
				}
			}
			return s
		},
		body: func(c *hlo.Computation, o Options, report *Report) error {
			if o.ConcatToPadMax {
				RewriteConcatToPadMax(c)
			}
			if o.FuseAddIntoEinsum {
				report.FusionsFormed = FuseAccumulation(c, o.OverlapFriendlyFusion)
			}
			return nil
		},
	},
	StageAsync: {
		Name: "async",
		// The body reads only whether a scheduler runs at all, so both
		// overlap schedulers share a key here and SchedulerNone has
		// its own.
		reads: func(o Options, key *Knobs) {
			key.Scheduler = SchedulerBottomUp
			if o.Scheduler == SchedulerNone {
				key.Scheduler = SchedulerNone
			}
		},
		// With SchedulerNone the collectives stay decomposed but
		// blocking (a useful ablation).
		identity: func(o Options) bool { return o.Scheduler == SchedulerNone },
		body: func(c *hlo.Computation, o Options, _ *Report) error {
			if o.Scheduler == SchedulerNone {
				return nil
			}
			// §5.2: the overlap schedulers consume the memory-minimizing
			// pass's output; their tie-breaks preserve that order.
			if err := ScheduleMinMemory(c); err != nil {
				return fmt.Errorf("core: min-memory scheduling: %w", err)
			}
			MakeAsync(c)
			return nil
		},
	},
	StageOrder: {
		Name:     "order",
		reads:    func(o Options, key *Knobs) { key.Scheduler = o.Scheduler },
		identity: func(o Options) bool { return o.Scheduler == SchedulerNone },
		body: func(c *hlo.Computation, o Options, _ *Report) error {
			if err := c.SetSchedule(Order(c, o)); err != nil {
				return fmt.Errorf("core: scheduling: %w", err)
			}
			return nil
		},
	},
	StageStamp: {
		Name:  "stamp",
		reads: func(o Options, key *Knobs) { key.KernelSplitK = o.KernelSplitK },
		body: func(c *hlo.Computation, o Options, _ *Report) error {
			// The factor the program executes with is part of its text.
			c.Walk(func(in *hlo.Instruction) {
				if in.Op == hlo.OpEinsum {
					in.SplitK = o.KernelSplitK
				}
			})
			return nil
		},
	},
}

// readFuse is the fuse stage's reads, named so its On can narrow them.
func readFuse(o Options, key *Knobs) {
	key.ConcatToPadMax = o.ConcatToPadMax
	key.FuseAddIntoEinsum = o.FuseAddIntoEinsum
	key.OverlapFriendlyFusion = o.OverlapFriendlyFusion
}

// holdsDone reports whether c, fusion and loop bodies included, has a
// CollectivePermuteDone.
func holdsDone(c *hlo.Computation) bool {
	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		if in.Op == hlo.OpCollectivePermuteDone || in.Body != nil && holdsDone(in.Body) {
			return true
		}
	}
	return false
}

// Order returns the instruction order the order stage gives c — the
// async stage's output — under o, leaving c as it is: c's own order
// under SchedulerNone. SetSchedule applies it.
//
// This is the form a search uses: one asynchronous program, one Order
// per scheduler against it, no copy per scheduler. (Splitting async
// from order while still cloning once per scheduler was measured slower
// than not splitting at all — the extra clone costs more than making
// the program asynchronous twice.)
func Order(c *hlo.Computation, o Options) []*hlo.Instruction {
	switch o.Scheduler {
	case SchedulerBottomUp:
		return ScheduleBottomUp(c, o.Spec)
	case SchedulerTopDown:
		return ScheduleTopDown(c, o.Spec)
	}
	return c.Instructions()
}

// Stages returns the pipeline's stages, indexed by the Stage constants.
func Stages() []Stage { return stages[:] }

// On returns the stage as it acts on the input program c: the same
// body, with Key and Identity narrowed by the stage's `on` rule where
// that is exact for c. It is sound, not complete — a knob c cannot feel
// may stay in the key, and a stage may leave c untouched without
// saying so. The rules today: fuse drops OverlapFriendlyFusion from
// its key when c holds no CollectivePermuteDone, and decompose is the
// identity when FindPatterns matches no site in c. It costs a scan of
// c, so a search calls it once per (program, stage), not once per
// Options.
func (s Stage) On(c *hlo.Computation) Stage {
	if s.on == nil {
		return s
	}
	return s.on(s, c)
}

// Key returns o's knobs reduced to the ones the stage reads: two Options
// with equal keys put one input program, under one Spec, into the same
// state after the stage — text, instruction IDs, fusion groups and
// IDBound. Spec is not in it: it is ambient to one search, not a knob.
func (s Stage) Key(o Options) Knobs {
	var key Knobs
	s.reads(o, &key)
	return key
}

// Identity reports that running the stage under o leaves its input
// exactly as it was — any program for a stage of the table, the one
// program for a stage from On — so its output may be its input itself.
func (s Stage) Identity(o Options) bool { return s.identity != nil && s.identity(o) }

// Run executes the stage on c in place, recording what it did in
// report.
func (s Stage) Run(c *hlo.Computation, o Options, report *Report) error {
	var err error
	c.WithRootPreserved(func() { err = s.body(c, o, report) })
	return err
}

// Apply runs the full overlap pipeline on the computation in place —
// every stage of the table above, in order — and verifies the result.
// To keep the baseline program untouched simply do not call Apply.
func Apply(c *hlo.Computation, opts Options) (Report, error) {
	var report Report
	if err := opts.Spec.Validate(); err != nil {
		return report, err
	}
	for _, s := range stages {
		if err := s.Run(c, opts, &report); err != nil {
			return report, err
		}
	}
	return report, c.Verify()
}
