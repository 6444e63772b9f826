// Package autotune searches the overlap pipeline's variant space for
// the configuration that actually runs fastest, instead of trusting the
// hand-set core.Options knobs or the §5.5 analytic estimate alone.
//
// The search is two-stage, mirroring how the paper's "apply only when
// beneficial" rule generalizes from one site to a whole program:
//
//  1. every enumerated candidate (core.EnumerateOptions, plus the
//     untransformed blocking baseline) is compiled and ranked by the
//     discrete-event simulator's predicted step time — cheap, analytic,
//     §5.5's cost model writ large;
//  2. the top-K predicted candidates (always including the paper's
//     DefaultOptions configuration, so tuning can never regress it) are
//     executed for real on the concurrent goroutine runtime, each run
//     cross-checked bit-identical against the lockstep interpreter, and
//     the winner is picked by its executed step as the runtime replays
//     it (measured compute, modeled wire). Every candidate
//     injects wire at one clock, measured on the input program
//     (runtime.Executable.Clock), so measured compute and wire stand in
//     the machine model's ratio; the plan carries that clock.
//
// Stage 1 never runs the pipeline per candidate. core's stage table
// says which knobs each stage reads, and core.Stage.On narrows that to
// the program the stage is about to run on, so the candidates form a
// tree (search.go): a node's child is a Clone of its program with one
// stage run on it, memoised on (node, stage, the stage's key on the
// node's program). A knob On shows the program cannot feel is not in
// that key, so it makes no second child, and a stage On marks the
// identity on the program under a candidate's options hands the node
// on as it is. Each
// candidate walks the tree in enumeration order, building the nodes it
// is the first to need, parents first by construction; a pass in the
// same order then dedups and simulates. A program's graph is never
// rewritten once built — every rewriting stage starts from a Clone.
// The order stage rewrites nothing, so an order node is no clone: it is
// its async parent's program plus the scheduler's order as instruction
// IDs, applied with SetSchedule by whoever reads the program in that
// order — both overlap schedulers order one asynchronous program. The
// final stamp stage is not run for ranking at all: it writes an
// attribute the simulator never reads, so a candidate is identified by
// the SHA-256 of its ordered node's text plus its split-K factor (when
// the node has an einsum to print it on), split-K variants share their
// node's one simulation, and only the candidates stage 2 executes are
// cloned, put in their order, stamped and verified in full.
// What is verified when: every decomposed site inside Decompose; every
// order where SetSchedule applies it; every node a candidate lands on,
// once, in its order; each factor's legality against its node; every
// executed program stamped, and then bitwise against sim.Interpret.
//
// Because stage 2 observes real breakdowns, the tuner also *calibrates*
// the machine model: it fits effective compute throughput, link
// bandwidth and per-op overhead so simulated and measured times track
// each other, and reports the residual error of the fit (calibrate.go).
//
// A tuning decision has one record, the Plan (plan.go), made where
// stage 2 picks its winner, from the program it executed. Every Result
// carries it. A plan is keyed by the program's body (Key): its text
// without the computation's name, which nothing in a search, a run, a
// check or the timing pass reads (TestRankingIgnoresTheName,
// TestWinnerIgnoresTheName), so programs that differ only in name are
// one plan. The plan store keeps it in two tiers under that key: the
// daemon's in-memory LRU (serve.planCache), where each request's
// name-bearing key is an alias of its body's entry, and a directory of
// plan files, one per body (cache.go) — the same bytes -plan-out writes
// and -plan-in reads. Tuning a body the directory holds answers from the
// stored plan: no pipeline stage, no simulation, no execution. The
// daemon's compile, CompileKeyed, returns the plan with the program and
// runtime.Executable it was executed and checked on — or, for a stored
// plan, the program its decode parsed, lowered once — so a served plan
// is parsed and lowered in one place.
package autotune

import (
	"context"
	"encoding/hex"
	"fmt"
	"sort"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// Options configures one Tune call.
type Options struct {
	// Spec is the machine model candidates are ranked and executed
	// against; it must validate.
	Spec machine.Spec

	// TopK bounds how many distinct candidates stage 2 executes on the
	// runtime (the DefaultOptions configuration is added on top when it
	// does not rank there). Zero means 3.
	TopK int

	// TimeScale overrides the runtime's wire-delay injection scale (see
	// runtime.Options). Zero derives it: stage 2 runs every candidate at
	// the clock it measures on the input program. Negative disables
	// injection (measured times then reflect compute only).
	TimeScale float64

	// Repeats is how many times each stage-2 candidate runs; the minimum
	// executed step is kept, damping the noise in measured compute. Zero
	// means 1.
	Repeats int

	// CachePath names the plan store's directory; empty means the
	// per-user default (DefaultCachePath).
	CachePath string

	// DisableCache skips both the store's lookup and its write.
	DisableCache bool

	// Calibrate fits the machine spec to the measured breakdowns and
	// reports the residual (Plan.Calibration, Plan.Residual).
	Calibrate bool

	// RunID correlates the tune with the caller's run-scoped telemetry:
	// candidate executions run under "<RunID>.<candidate>.r<repeat>"
	// and structured logs carry it.
	// Empty mints a fresh obs.NewRunID.
	RunID string
}

func (o Options) withDefaults() Options {
	if o.TopK == 0 {
		o.TopK = 3
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	return o
}

// Candidate is one enumerated configuration and what the search learned
// about it.
type Candidate struct {
	// Name is a short human-readable label ("baseline", "rolled", or the
	// knob fingerprint).
	Name string
	// Opts is the pipeline configuration; meaningless when Baseline.
	Opts core.Options
	// Baseline marks the untransformed blocking program (no Apply call).
	Baseline bool

	// Predicted is the simulator's breakdown of the transformed program,
	// in modeled seconds.
	Predicted sim.Breakdown
	// Measured is the runtime's breakdown of the fastest repeat, in
	// seconds of its replayed step; valid only when Executed.
	Measured sim.Breakdown
	// Executed reports whether stage 2 ran this candidate.
	Executed bool
	// Checked reports that the runtime outputs were verified
	// bit-identical against the lockstep interpreter.
	Checked bool
	// DuplicateOf names an earlier candidate that produced a
	// byte-identical transformed program; duplicates are ranked and
	// executed only once, under the canonical candidate's name.
	DuplicateOf string
	// Err records why a candidate dropped out (apply or simulate
	// failure); such candidates are never executed.
	Err string

	// unique marks the first candidate, in enumeration order, to yield
	// its program without error: the one stage 1 simulated, and the only
	// kind stage 2 executes. Duplicates and errored candidates are not.
	unique bool
}

// Result is what one Tune call decided — its Plan — and the log of the
// search that decided it.
type Result struct {
	// Plan is the decision's one record: the winner as stage 2 executed
	// it, or, on a CacheHit, the stored plan as it was read. Its
	// Fingerprint, BestName, Baseline (the §5.5 "apply only when
	// beneficial" verdict at whole-program granularity), Knobs, step
	// times and calibration are everything the tune decided.
	Plan *Plan

	// Candidates lists every enumerated configuration, sorted by
	// predicted step time (errored candidates last); empty on a
	// CacheHit, when no search ran.
	Candidates []Candidate
	// Executions counts the candidate runs stage 2 performed, the
	// clock's wire-free runs aside; zero on a CacheHit.
	Executions int

	// CacheHit reports the plan came from the store's directory;
	// CachePath is that directory (empty when the disk tier is off).
	CacheHit  bool
	CachePath string

	// RunID is the tune's run identity (Options.RunID or freshly
	// minted), the key its structured logs and candidate executions
	// correlate under.
	RunID string

	// spec is the machine spec the tune was given: ApplyBest re-attaches
	// it to the plan's knobs.
	spec machine.Spec
}

// ApplyBest applies the winning configuration to c in place; when the
// blocking baseline won it leaves c untouched and returns an empty
// report. The whole decision, kernel split-K factor included, lands in
// the program text, so any executor of c runs the measured winner.
func (r *Result) ApplyBest(c *hlo.Computation) (core.Report, error) {
	if r.Plan.Baseline {
		return core.Report{}, nil
	}
	return core.Apply(c, core.Options{Spec: r.spec, Knobs: r.Plan.Knobs})
}

// ProgramFingerprint returns the cache identity of a computation's body:
// a hash of its printed form without the computation's name
// (hlo.Computation.UnnamedDigest), so any structural change re-tunes and
// a rename does not.
func ProgramFingerprint(c *hlo.Computation) string {
	sum := c.UnnamedDigest()
	return hex.EncodeToString(sum[:8])
}

// Tune searches the pipeline variant space for the computation and
// returns the fastest configuration by executed step. c is not
// modified; args follows sim.Interpret's convention (args[i][d] is
// parameter i's value on device d, a single entry replicates).
func Tune(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Result, error) {
	res, _, _, err := tune("", c, numDevices, args, opts)
	return res, err
}

// tune is Tune under a plan key the caller already computed —
// Key(c, opts.Spec, numDevices); empty computes it here. With the result
// it returns the plan's program as a graph and, when the tune searched,
// stage 2's winner's Executable, the one it was executed and checked on.
// A plan from the disk tier comes with the program its decode parsed and
// no Executable: nothing ran it.
func tune(key string, c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Result, *hlo.Computation, *runtime.Executable, error) {
	opts = opts.withDefaults()
	if c == nil {
		return nil, nil, nil, fmt.Errorf("autotune: nil computation")
	}
	if err := c.VerifyRing(numDevices); err != nil {
		return nil, nil, nil, err
	}
	if err := opts.Spec.Validate(); err != nil {
		return nil, nil, nil, err
	}

	if key == "" {
		key = Key(c, opts.Spec, numDevices)
	}
	if opts.RunID == "" {
		opts.RunID = obs.NewRunID()
	}
	res := &Result{RunID: opts.RunID, spec: opts.Spec}

	atTunes.Inc()

	// Warm path: a stored plan answers without compiling, simulating or
	// executing anything.
	if !opts.DisableCache {
		res.CachePath = cachePath(opts)
	}
	if res.CachePath != "" {
		if plan, prog := loadPlan(res.CachePath, key, numDevices); plan != nil {
			atCacheHits.Inc()
			res.Plan, res.CacheHit = plan, true
			obs.Log().Info("autotune.tune", "run_id", res.RunID,
				"fingerprint", key, "cache_hit", true, "best", plan.BestName)
			return res, prog, nil, nil
		}
	}
	atCacheMisses.Inc()

	// Stage 1: enumerate, run each stage once per distinct input and
	// key, rank by simulated time.
	s := newSearch(c, numDevices, opts.Spec)
	cands := enumerate(c, numDevices, opts)
	s.stage1(cands)
	res.Candidates = rank(cands)
	atCandidates.Add(float64(len(res.Candidates)))

	// Stage 2: execute the top-K (plus the paper's default) for real.
	winner, prog, exe, scale, err := stage2(res, s, args, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	atExecutions.Add(float64(res.Executions))

	cal, residual := machine.Identity(), -1.0
	if opts.Calibrate {
		cal, residual = calibrate(res.Candidates, s, scale)
		if residual >= 0 {
			atResidual.Set(residual)
		}
	}

	// The plan is made from the program stage 2 executed.
	res.Plan = newPlan(key, numDevices, opts.Spec, winner, prog, cal, residual, scale)
	if res.CachePath != "" {
		if err := storePlan(res.CachePath, res.Plan); err != nil {
			return nil, nil, nil, fmt.Errorf("autotune: storing plan: %w", err)
		}
	}
	obs.Log().Info("autotune.tune", "run_id", res.RunID,
		"fingerprint", res.Plan.Fingerprint, "cache_hit", false,
		"best", res.Plan.BestName, "executions", res.Executions)
	return res, prog, exe, nil
}

// enumerate builds the candidate list: the blocking baseline plus every
// configuration core.EnumerateOptions yields.
func enumerate(c *hlo.Computation, numDevices int, opts Options) []*Candidate {
	cands := []*Candidate{{Name: "baseline", Baseline: true}}
	for _, o := range core.EnumerateOptions(opts.Spec, numDevices, c) {
		name := o.Fingerprint()
		if o.Rolled {
			name = "rolled"
		}
		cands = append(cands, &Candidate{Name: name, Opts: o})
	}
	return cands
}

// rank orders candidates by predicted step time; duplicates follow
// their canonical candidate, errored candidates sink to the end.
func rank(cands []*Candidate) []Candidate {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		switch {
		case (a.Err == "") != (b.Err == ""):
			return a.Err == ""
		case a.Err != "":
			return false
		}
		if a.Predicted.StepTime != b.Predicted.StepTime {
			return a.Predicted.StepTime < b.Predicted.StepTime
		}
		// Ties (e.g. duplicates): keep unique candidates first.
		return a.unique && !b.unique
	})
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		out[i] = *c
	}
	return out
}

// stage2Set picks, from the ranked candidates, the indices stage 2
// executes: the first topK unique ones, plus the unique candidate that
// is or stands in for the paper's DefaultOptions configuration when it
// did not rank among them.
func stage2Set(ranked []Candidate, topK int, spec machine.Spec) []int {
	def := defaultKnobs(spec)
	toRun := []int{}
	haveDefault := false
	for i := range ranked {
		cand := &ranked[i]
		if !cand.unique || len(toRun) >= topK {
			continue
		}
		toRun = append(toRun, i)
		if cand.covers(def, ranked) {
			haveDefault = true
		}
	}
	if !haveDefault {
		for i := range ranked {
			cand := &ranked[i]
			if cand.unique && cand.covers(def, ranked) {
				toRun = append(toRun, i)
				break
			}
		}
	}
	return toRun
}

// stage2 executes the top-K unique candidates — forcing the paper's
// DefaultOptions configuration into the set so the tuned result can
// never be slower than it in the same measurement session — picks the
// fastest by executed step and returns it with its program and that
// program's Executable: the ones that were executed and checked, not a
// rebuild of them. The last return is the wire scale every candidate
// ran at: opts.TimeScale, or when that is zero the clock measured on
// the input program; 0 for no wire.
func stage2(res *Result, s *search, args [][]*tensor.Tensor, opts Options) (*Candidate, *hlo.Computation, *runtime.Executable, float64, error) {
	toRun := stage2Set(res.Candidates, opts.TopK, opts.Spec)
	if len(toRun) == 0 {
		return nil, nil, nil, 0, fmt.Errorf("autotune: no candidate survived stage 1 (first error: %s)", firstErr(res.Candidates))
	}

	// Only now does a program leave the search tree: each candidate to
	// execute is cloned from its node, stamped and verified in full, and
	// compiled for the runtime once — every repeat runs the same
	// Executable.
	numDevices := s.numDevices
	progs := make([]*hlo.Computation, len(toRun))
	exes := make([]*runtime.Executable, len(toRun))
	input := -1 // position in toRun of the baseline: the input program
	for k, i := range toRun {
		cand := &res.Candidates[i]
		prog, err := s.materialise(cand)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("autotune: materialising %s: %w", cand.Name, err)
		}
		progs[k] = prog
		if exes[k], err = runtime.Compile(prog, numDevices, opts.Spec); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("autotune: executing %s: %w", cand.Name, err)
		}
		if cand.Baseline {
			input = k
		}
	}
	s.releaseTree()

	// The clock is the input program's, whichever candidates run. Its
	// wire-free runs are also the warm-up: the first execution in a
	// process pays for thread-pool and allocator spin-up that would
	// otherwise be charged to whichever candidate happens to run first.
	ctx := context.Background()
	var clockOn *runtime.Executable
	if input >= 0 {
		clockOn = exes[input]
	} else {
		var err error
		if clockOn, err = runtime.Compile(s.base.c, numDevices, opts.Spec); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("autotune: measuring the clock: %w", err)
		}
	}
	scale, err := clockOn.Clock(ctx, args)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("autotune: measuring the clock: %w", err)
	}
	if opts.TimeScale != 0 {
		scale = max(opts.TimeScale, 0)
	}
	ropts := runtime.Options{TimeScale: scale}

	best := -1 // position in toRun
	for k, i := range toRun {
		cand, prog := &res.Candidates[i], progs[k]
		for r := 0; r < opts.Repeats; r++ {
			ropts.RunID = fmt.Sprintf("%s.%s.r%d", opts.RunID, cand.Name, r)
			run, err := exes[k].Run(ctx, args, ropts)
			if err != nil {
				return nil, nil, nil, 0, fmt.Errorf("autotune: executing %s: %w", cand.Name, err)
			}
			res.Executions++
			if r == 0 {
				if err := runtime.CheckInterpreter(prog, numDevices, args, run); err != nil {
					return nil, nil, nil, 0, fmt.Errorf("autotune: checking %s: %w", cand.Name, err)
				}
				cand.Checked = true
			}
			// Only the timings are kept; the next execution reuses the
			// output buffers.
			run.Release()
			if !cand.Executed || run.Breakdown.StepTime < cand.Measured.StepTime {
				cand.Measured = run.Breakdown
			}
			cand.Executed = true
		}
		if best < 0 || cand.Measured.StepTime < res.Candidates[toRun[best]].Measured.StepTime {
			best = k
		}
	}
	return &res.Candidates[toRun[best]], progs[best], exes[best], scale, nil
}

// covers reports whether this candidate is, or canonically stands in
// for (via dedup), the configuration with the given knobs.
func (cand *Candidate) covers(knobs core.Knobs, all []Candidate) bool {
	if !cand.Baseline && cand.Opts.Knobs == knobs {
		return true
	}
	for _, other := range all {
		if other.DuplicateOf == cand.Name && !other.Baseline && other.Opts.Knobs == knobs {
			return true
		}
	}
	return false
}

// defaultKnobs is the paper's deployed configuration within the
// enumerated space (cost-model gate off — the search itself is the
// gate).
func defaultKnobs(spec machine.Spec) core.Knobs {
	k := core.DefaultOptions(spec).Knobs
	k.UseCostModel = false
	return k
}

func firstErr(cands []Candidate) string {
	for _, c := range cands {
		if c.Err != "" {
			return c.Err
		}
	}
	return "none"
}
