package autotune_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"overlap/internal/autotune"
	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/topology"
	"overlap/internal/train"
)

// site builds a canonical AllGather-Einsum decomposition site on a ring
// of n devices, with per-device random arguments.
func site(n int, seed int64) (*hlo.Computation, [][]*tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	groups := topology.NewRing(n).AxisGroups(0)
	const m, k, nn = 8, 6, 10
	c := hlo.NewComputation("site")
	a := c.Parameter(0, "a", []int{m, k})
	b := c.Parameter(1, "b", []int{k, nn})
	full := c.AllGather(a, 0, groups)
	c.Einsum("mk,kn->mn", full, b)
	perDevice := func(shape []int) []*tensor.Tensor {
		out := make([]*tensor.Tensor, n)
		for d := range out {
			out[d] = tensor.Rand(rng, shape...)
		}
		return out
	}
	return c, [][]*tensor.Tensor{perDevice([]int{m, k}), perDevice([]int{k, nn})}
}

// miniArgs supplies one replicated random tensor per parameter.
func miniArgs(c *hlo.Computation, seed int64) [][]*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	params := c.Parameters()
	args := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		args[i] = []*tensor.Tensor{tensor.Rand(rng, p.Shape...)}
	}
	return args
}

func tuneOpts(t *testing.T) autotune.Options {
	t.Helper()
	return autotune.Options{
		Spec:      machine.TPUv4(),
		TopK:      2,
		TimeScale: 50,
		CachePath: filepath.Join(t.TempDir(), "plans"),
	}
}

// defaultEquivalent returns the measured wall-clock of the candidate
// standing in for the paper's DefaultOptions configuration (directly or
// as the canonical representative it deduplicated into), and whether
// one was executed.
func defaultEquivalent(res *autotune.Result, spec machine.Spec) (float64, bool) {
	want := core.DefaultOptions(spec).Knobs
	want.UseCostModel = false
	canonical := ""
	for _, cand := range res.Candidates {
		if !cand.Baseline && cand.Err == "" && cand.Opts.Knobs == want {
			canonical = cand.Name
			if cand.DuplicateOf != "" {
				canonical = cand.DuplicateOf
			}
		}
	}
	for _, cand := range res.Candidates {
		if cand.Name == canonical && cand.Executed {
			return cand.Measured.StepTime, true
		}
	}
	return 0, false
}

// TestTuneSite runs the search end to end on a single decomposition
// site and checks the structural guarantees: candidates enumerated and
// ranked, the default configuration measured, every executed candidate
// cross-checked, and the winner no slower than any measured candidate.
func TestTuneSite(t *testing.T) {
	const n = 4
	c, args := site(n, 1)
	opts := tuneOpts(t)
	res, err := autotune.Tune(c, n, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("cold tune reported a cache hit")
	}
	if res.Executions == 0 {
		t.Fatal("cold tune executed nothing")
	}
	if res.Plan.BestName == "" {
		t.Fatal("no winner")
	}
	if len(res.Candidates) < 10 {
		t.Fatalf("only %d candidates enumerated", len(res.Candidates))
	}
	var executed int
	for _, cand := range res.Candidates {
		if !cand.Executed {
			continue
		}
		executed++
		if !cand.Checked {
			t.Errorf("%s executed without interpreter cross-check", cand.Name)
		}
		if cand.Measured.StepTime < res.Plan.MeasuredSec {
			t.Errorf("%s measured %v, faster than winner %v", cand.Name, cand.Measured.StepTime, res.Plan.MeasuredSec)
		}
	}
	if executed < 2 {
		t.Fatalf("stage 2 executed %d candidates, want >= 2", executed)
	}
	defWall, ok := defaultEquivalent(res, opts.Spec)
	if !ok {
		t.Fatal("DefaultOptions configuration was not measured")
	}
	if res.Plan.MeasuredSec > defWall {
		t.Fatalf("winner measured %v slower than DefaultOptions %v", res.Plan.MeasuredSec, defWall)
	}
}

// TestWarmCacheZeroExecutions pins the plan store's contract: a second
// Tune of the same (program, spec, devices) returns the stored plan —
// the cold tune's, field for field — and performs zero runtime
// executions.
func TestWarmCacheZeroExecutions(t *testing.T) {
	const n = 4
	c, args := site(n, 2)
	opts := tuneOpts(t)
	opts.Calibrate = true

	cold, err := autotune.Tune(c, n, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := autotune.Tune(c, n, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second tune missed the cache")
	}
	if warm.Executions != 0 {
		t.Fatalf("warm tune performed %d runtime executions, want 0", warm.Executions)
	}
	if *warm.Plan != *cold.Plan {
		t.Fatalf("warm tune returned a different plan than the cold tune stored:\n%+v\n%+v", warm.Plan, cold.Plan)
	}

	// A different device count is a different decision.
	other, err := autotune.Tune(c, n, args, autotune.Options{
		Spec: opts.Spec, TopK: 2, TimeScale: 50, CachePath: opts.CachePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !other.CacheHit {
		t.Fatal("same key should still hit")
	}
	c2, args2 := site(2, 2)
	miss, err := autotune.Tune(c2, 2, args2, autotune.Options{
		Spec: opts.Spec, TopK: 2, TimeScale: 50, CachePath: opts.CachePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit {
		t.Fatal("different ring size must not hit the cache")
	}
}

// TestCacheCorruptionTolerated checks a rotten plan file degrades to a
// cold tune instead of an error, and is repaired by the store.
func TestCacheCorruptionTolerated(t *testing.T) {
	const n = 4
	c, args := site(n, 3)
	opts := tuneOpts(t)
	name := fmt.Sprintf("%x.json", sha256.Sum256([]byte(autotune.Key(c, opts.Spec, n))))
	if err := writeFile(filepath.Join(opts.CachePath, name), "{not json"); err != nil {
		t.Fatal(err)
	}
	res, err := autotune.Tune(c, n, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("corrupt cache produced a hit")
	}
	warm, err := autotune.Tune(c, n, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("store did not repair the corrupt cache")
	}
}

// TestCalibration checks the fitted spec is valid and the reported
// residual is a finite relative error.
func TestCalibration(t *testing.T) {
	const n = 4
	c, args := site(n, 4)
	opts := tuneOpts(t)
	opts.Calibrate = true
	opts.TopK = 3
	res, err := autotune.Tune(c, n, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	cal, residual := res.Plan.Calibration, res.Plan.Residual
	if cal.ComputeScale <= 0 || cal.WireScale <= 0 || cal.OverheadScale <= 0 {
		t.Fatalf("non-positive calibration factors: %+v", cal)
	}
	if err := cal.Apply(opts.Spec).Validate(); err != nil {
		t.Fatalf("calibrated spec invalid: %v", err)
	}
	if residual < 0 || math.IsNaN(residual) || math.IsInf(residual, 0) {
		t.Fatalf("residual %v, want finite >= 0", residual)
	}
	// The fit must actually move the spec: the runtime's Go compute is
	// orders of magnitude off the TPU model, so identity would mean the
	// fit did not run.
	if cal == machine.Identity() {
		t.Fatal("calibration came back exactly identity")
	}
}

func writeFile(path, content string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestTuneMiniatures pins the headline acceptance: for every Table 1/2
// model miniaturized onto 4- and 8-device rings, the tuned options'
// measured runtime is never slower than the DefaultOptions
// configuration measured in the same session, and at least one model
// strictly improves on it.
func TestTuneMiniatures(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature sweep is long")
	}
	spec := machine.TPUv4()
	seen := map[string]bool{}
	improved := 0
	for _, cfg := range append(models.Table1(), models.Table2()...) {
		if seen[cfg.Name] {
			continue // GPT_1T appears in both tables
		}
		seen[cfg.Name] = true
		for _, n := range []int{4, 8} {
			mini, err := models.Miniature(cfg, n, 2)
			if err != nil {
				t.Fatalf("%s/%d: %v", cfg.Name, n, err)
			}
			c, err := models.BuildLayerStep(mini)
			if err != nil {
				t.Fatalf("%s/%d: %v", cfg.Name, n, err)
			}
			args := miniArgs(c, int64(n))
			res, err := autotune.Tune(c, n, args, autotune.Options{
				Spec:      spec,
				TopK:      2,
				TimeScale: 25,
				CachePath: filepath.Join(t.TempDir(), "plans"),
			})
			if err != nil {
				t.Fatalf("%s/%d: %v", cfg.Name, n, err)
			}
			defWall, ok := defaultEquivalent(res, spec)
			if !ok {
				t.Fatalf("%s/%d: DefaultOptions configuration not measured", cfg.Name, n)
			}
			if res.Plan.MeasuredSec > defWall {
				t.Errorf("%s/%d: tuned %v slower than default %v", cfg.Name, n, res.Plan.MeasuredSec, defWall)
			}
			if res.Plan.MeasuredSec < defWall {
				improved++
			}
		}
	}
	if improved == 0 {
		t.Error("no model improved on DefaultOptions anywhere in the sweep")
	}
}

// TestTuneAllocBudget bounds what one cold Tune allocates, on the
// program shapes the daemon compiles most — a layer miniature and a
// megatron training step — and on the widest tree there is, a ddp step
// (GradBucketBytes × SplitAllReduce multiply the pre stage). The
// per-candidate pipeline allocated 69 and 221 MiB on the first two; the
// tree memoised on knob prefixes 31.4, 33.9 and (ddp) 40.7; with einsums
// parsed once, slice-backed users, ID-indexed scratch and an order node
// that is an order and not a clone, 16.6, 17.8 and 26.7; with each
// stage keyed on the program it runs on (no fuse node per
// OverlapFriendlyFusion setting, no decompose clone of a site-less
// input), 13.0, 13.4 and 18.7; with the interpreter holding only its
// live set, 10.3, 10.8 and 10.1; with instructions narrowed to 168
// bytes and the attributes shared by every clone (hlo.Attrs), they
// measure 7.8, 8.1 and 8.8. The budgets are those times 1.25.
func TestTuneAllocBudget(t *testing.T) {
	if corpus.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg, err := models.ByName("GPT_32B")
	if err != nil {
		t.Fatal(err)
	}
	mini, err := models.Miniature(cfg, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := models.BuildLayerStep(mini)
	if err != nil {
		t.Fatal(err)
	}
	steps := map[train.Strategy]*hlo.Computation{}
	for _, strategy := range []train.Strategy{train.StrategyMegatron, train.StrategyDDP} {
		tc, err := train.FromModel(cfg, 4, 8, 2, strategy)
		if err != nil {
			t.Fatal(err)
		}
		step, err := train.Build(tc)
		if err != nil {
			t.Fatal(err)
		}
		steps[strategy] = step.Comp
	}
	for _, tc := range []struct {
		name      string
		c         *hlo.Computation
		budgetMiB float64
	}{
		{"GPT_32B devices 4 dim 8", layer, 10},
		{"megatron step dim 8 layers 2", steps[train.StrategyMegatron], 10},
		{"ddp step dim 8 layers 2", steps[train.StrategyDDP], 11},
	} {
		args := miniArgs(tc.c, 7)
		opts := autotune.Options{Spec: machine.TPUv4(), TimeScale: 200, DisableCache: true, Calibrate: true}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := autotune.Tune(tc.c, 4, args, opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s: %.1f MiB per Tune (budget %.1f)", tc.name, got, tc.budgetMiB)
		if got > tc.budgetMiB {
			t.Errorf("%s: one Tune allocated %.1f MiB, budget %.1f", tc.name, got, tc.budgetMiB)
		}
	}
}

// TestTuneIsDeterministic: nothing stage 1 decides may depend on the
// run — not on map iteration (user lists are slices in edge order now),
// not on which order an async node's shared program was last read in,
// not on how many workers built the tree's subtrees and simulated its
// nodes, nor on how many cores stage 2's executions had. For every
// corpus program, three tunes each on one, two and four cores agree on
// the whole candidate list — names, order, Predicted, DuplicateOf, Err, and which
// candidates stage 2 executed — and on the program text of whichever
// candidate wins. Which one wins is stage 2's wall-clock measurement and
// may differ from run to run when more than one was executed; when only
// one was, so must BestName.
func TestTuneIsDeterministic(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Stage 1 is what is under test: the fewest executions, no wire delay.
	opts := autotune.Options{Spec: machine.TPUv4(), TopK: 1, TimeScale: -1, DisableCache: true}
	type decided struct {
		name, dupOf, err  string
		predicted         sim.Breakdown
		executed, checked bool
	}
	for _, p := range progs {
		if (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		args := miniArgs(p.Comp, 7)
		var first []decided
		texts := map[string]string{} // winner → plan text
		for _, procs := range []int{1, 2, 4} {
			for rep := 0; rep < 3; rep++ {
				runtime.GOMAXPROCS(procs)
				res, err := autotune.Tune(p.Comp, p.Devices, args, opts)
				if err != nil {
					t.Fatalf("%s: GOMAXPROCS %d: %v", p.Name, procs, err)
				}
				got := make([]decided, len(res.Candidates))
				executed, wonExecuted := 0, false
				for i, c := range res.Candidates {
					got[i] = decided{c.Name, c.DuplicateOf, c.Err, c.Predicted, c.Executed, c.Checked}
					if c.Executed {
						executed++
						wonExecuted = wonExecuted || c.Name == res.Plan.BestName
					}
				}
				if !wonExecuted {
					t.Fatalf("%s: winner %q was not executed", p.Name, res.Plan.BestName)
				}
				plan := res.Plan
				if first == nil {
					first = got
				}
				if len(got) != len(first) {
					t.Fatalf("%s: GOMAXPROCS %d run %d: %d candidates, first run %d", p.Name, procs, rep, len(got), len(first))
				}
				for i := range got {
					if got[i] != first[i] {
						t.Fatalf("%s: GOMAXPROCS %d run %d: candidate %d is %+v, first run %+v", p.Name, procs, rep, i, got[i], first[i])
					}
				}
				if text, seen := texts[res.Plan.BestName]; seen && text != plan.Program {
					t.Fatalf("%s: GOMAXPROCS %d run %d: winner %s compiled to a different program", p.Name, procs, rep, res.Plan.BestName)
				}
				texts[res.Plan.BestName] = plan.Program
				if executed == 1 && len(texts) != 1 {
					t.Fatalf("%s: one candidate executed, winners %v", p.Name, texts)
				}
			}
		}
	}
}
