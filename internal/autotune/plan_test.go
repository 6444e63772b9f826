package autotune_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"testing"

	"overlap/internal/autotune"
	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

var updatePlanGolden = flag.Bool("update", false, "rewrite golden files")

// TestPlanGoldenJSON pins the serialized Plan schema — field names,
// order, and the version field — so the artifact the daemon serves, the
// CLIs round-trip, and a future reader decodes can never drift
// silently. Run with -update to accept intentional schema changes
// (which must also bump PlanVersion).
func TestPlanGoldenJSON(t *testing.T) {
	c, _ := site(2, 1)
	spec := machine.TPUv4()
	opts := core4DefaultKnobs()
	p := &autotune.Plan{
		Version:      autotune.PlanVersion,
		Fingerprint:  "fixedprog|fixedspec|n=2|kw=1|obs=1",
		Devices:      2,
		SpecName:     spec.Name,
		BestName:     "golden",
		Knobs:        opts,
		Program:      c.Format(),
		PredictedSec: 0.001,
		MeasuredSec:  0.002,
		Calibration:  machine.Identity(),
		Residual:     0.125,
		TimeScale:    512,
		// Created deliberately empty: golden fixtures are timeless.
	}
	got, err := p.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "plan.golden")
	if *updatePlanGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != string(got) {
		t.Fatalf("Plan JSON schema changed; bump PlanVersion and run with -update if intended.\n--- got ---\n%s", got)
	}
	if !strings.Contains(string(got), `"version": 4`) {
		t.Fatal("serialized plan does not carry the version field")
	}

	back, err := autotune.DecodePlan(got)
	if err != nil {
		t.Fatalf("golden plan does not decode: %v", err)
	}
	if back.Fingerprint != p.Fingerprint || back.Program != p.Program {
		t.Fatal("golden plan did not round-trip")
	}
}

// TestPlanCompileExecutes compiles a plan end to end and proves the
// artifact is self-contained: decode from JSON, parse the embedded
// program, execute it on the runtime, and match the lockstep
// interpreter bit for bit.
func TestPlanCompileExecutes(t *testing.T) {
	c, args := site(4, 7)
	opts := tuneOpts(t)
	plan, err := autotune.Compile(c, 4, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Version != autotune.PlanVersion {
		t.Fatalf("compiled plan version %d, want %d", plan.Version, autotune.PlanVersion)
	}
	if plan.Fingerprint == "" || plan.Program == "" {
		t.Fatal("compiled plan is missing its fingerprint or program")
	}
	if want := autotune.Key(c, opts.Spec, 4); plan.Fingerprint != want {
		t.Fatalf("Compile keyed the plan %q, Key says %q", plan.Fingerprint, want)
	}
	// A caller that already holds the key hands it down: the decision
	// Compile just cached under it answers, without the program being
	// formatted and hashed again.
	keyed, _, _, err := autotune.CompileKeyed(plan.Fingerprint, c, 4, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if keyed.Fingerprint != plan.Fingerprint || keyed.Program != plan.Program {
		t.Fatal("CompileKeyed under the program's key compiled a different plan")
	}

	data, err := plan.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := autotune.DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := back.Computation()
	if err != nil {
		t.Fatal(err)
	}

	want, err := sim.Interpret(exec, 4, args)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(exec, 4, args, runtime.Options{Spec: opts.Spec, TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	for d := range want {
		if !res.Values[d].Equal(want[d]) {
			t.Fatalf("device %d: decoded plan diverges from the interpreter", d)
		}
	}
}

// TestPlanIsTheExecutedProgram pins the single producer over the corpus:
// the plan a tune hands out carries the text of the program stage 2
// materialised, executed and checked — which is, byte for byte, what the
// whole pipeline run on a fresh clone under the winning knobs prints (the
// rebuild the tuner used to do to make a plan, kept here as the oracle) —
// and the artifact survives its own encoding unchanged.
func TestPlanIsTheExecutedProgram(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	opts := autotune.Options{Spec: machine.TPUv4(), TopK: 2, TimeScale: -1, DisableCache: true, Calibrate: true}
	for _, p := range progs {
		if p.Long() {
			continue
		}
		plan, err := autotune.Compile(p.Comp, p.Devices, miniArgs(p.Comp, 7), opts)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		rebuilt := p.Comp.Clone()
		if !plan.Baseline {
			if _, err := core.Apply(rebuilt, core.Options{Spec: opts.Spec, Knobs: plan.Knobs}); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
		if want := rebuilt.Format(); plan.Program != want {
			t.Errorf("%s: winner %s: the plan's program is not the pipeline's:\n--- plan ---\n%s--- pipeline ---\n%s",
				p.Name, plan.BestName, plan.Program, want)
		}
		data, err := plan.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := autotune.DecodePlan(data)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if *back != *plan {
			t.Errorf("%s: plan did not round-trip:\n%+v\n%+v", p.Name, back, plan)
		}
		exec, err := back.Computation()
		if err != nil {
			t.Fatal(err)
		}
		if exec.Format() != plan.Program {
			t.Errorf("%s: the plan's program does not print back as itself", p.Name)
		}
	}
}

// TestWarmCompileDoesNoPipelineWork is the disk tier's reason to exist,
// as allocation: compiling a fingerprint the store holds reads one file
// and parses one program — under a tenth of what the search allocated.
func TestWarmCompileDoesNoPipelineWork(t *testing.T) {
	if corpus.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c, args := site(4, 9)
	opts := tuneOpts(t)
	opts.Calibrate = true
	allocated := func() (*autotune.Plan, uint64) {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		plan, err := autotune.Compile(c, 4, args, opts)
		goruntime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return plan, after.TotalAlloc - before.TotalAlloc
	}
	cold, coldBytes := allocated()
	warm, warmBytes := allocated()
	if *warm != *cold {
		t.Fatal("the warm compile returned a different plan")
	}
	t.Logf("cold %d KiB, warm %d KiB", coldBytes>>10, warmBytes>>10)
	if warmBytes*10 >= coldBytes {
		t.Fatalf("warm compile allocated %d KiB, cold %d KiB: a stored plan must cost under a tenth of a search", warmBytes>>10, coldBytes>>10)
	}
}

// TestDecodePlanRejects pins the failure modes: wrong version, torn
// JSON, and an embedded program that no longer parses must all error.
func TestDecodePlanRejects(t *testing.T) {
	c, args := site(2, 3)
	plan, err := autotune.Compile(c, 2, args, tuneOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	good, err := plan.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := autotune.DecodePlan(good[:len(good)/2]); err == nil {
		t.Fatal("truncated plan decoded")
	}
	// A plan of an older version may mean something else by the same
	// fields (a v1 program is unstamped and would execute unsplit
	// whatever its knobs say; a v3 plan names no clock), so it must fail
	// closed.
	stale := strings.Replace(string(good), `"version": 4`, `"version": 3`, 1)
	if _, err := autotune.DecodePlan([]byte(stale)); err == nil || !strings.Contains(err.Error(), "plan version 3, want 4 (recompile the plan)") {
		t.Fatalf("v3 plan: got %v, want the version error", err)
	}
	corrupt := *plan
	corrupt.Program = "this is not an hlo computation"
	bad, err := corrupt.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := autotune.DecodePlan(bad); err == nil {
		t.Fatal("plan with a corrupt program decoded")
	}
}

// TestDecodePlanMalformedProgram: a plan file is outside input, and its
// program is the part that gets executed. Text the IR builder panics on
// must fail the decode with the parser's line-numbered error, and text
// that parses but is not a well-formed program, or not one for the
// plan's own ring, must fail there too — not in whoever runs the plan.
func TestDecodePlanMalformedProgram(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "plan.golden"))
	if err != nil {
		t.Fatal(err)
	}
	good, err := autotune.DecodePlan(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, program, want string }{
		{"operandless collective", "m {\n  %p = f32[] parameter()\n  %g = f32[] all-gather()\n}", "hlo: line 3: "},
		{"missing einsum label", "m {\n  %a = f32[2 2] parameter(), index=0\n  %e = f32[2 2] einsum(%a, %a), spec=\"ab,bc->ad\"\n}", "hlo: line 3: "},
		{"one-operand add", "m {\n  %a = f32[2] parameter(), index=0\n  %s = f32[2] add(%a)\n}", "hlo: line 3: "},
		{"parses, does not verify", "m {\n  %a = f32[2] parameter(), index=0\n  %r = f32[3] reshape(%a)\n}", ""},
		{"verifies, does not fit the plan's 2-device ring", "m {\n  %a = f32[2] parameter(), index=0\n  %p = f32[2] collective-permute(%a), pairs=[{0,2}]\n}",
			"hlo: p pair 0->2 out of range [0,2)"},
	} {
		p := *good
		p.Program = tc.program
		data, err := p.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if back, err := autotune.DecodePlan(data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodePlan returned (%v, %v), want an error containing %q", tc.name, back, err, tc.want)
		}
	}
}

// FuzzDecodePlan follows a plan file as far as overlap run -plan-in and
// the plan store take it — decode, parse, compile for the runtime — and
// on to the other two executors, the simulator and the interpreter, on
// seeded arguments: what the front door accepts, no executor panics on.
// Every step must end in a plan or an error. The seeds under
// testdata/fuzz are the plan fixture, a plan around each of core's five
// goldens, around each malformed text above, and around the programs
// that used to crash the simulator (a device outside the plan's ring) or
// spin it (a 999999999-trip loop); plain go test replays them.
func FuzzDecodePlan(f *testing.F) {
	spec := machine.TPUv4()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := autotune.DecodePlan(data)
		if err != nil {
			return
		}
		c, err := p.Computation()
		if err != nil {
			t.Fatalf("a decoded plan's program does not parse: %v", err)
		}
		if p.Devices > 16 || !fuzzRunnable(c) {
			return // sound, but not something a fuzz iteration can afford
		}
		_, _ = runtime.Compile(c, p.Devices, spec)
		_, _ = sim.Simulate(c, p.Devices, spec)
		rng := rand.New(rand.NewSource(1))
		var args [][]*tensor.Tensor
		for _, param := range c.Parameters() {
			args = append(args, []*tensor.Tensor{tensor.Rand(rng, param.Shape...)})
		}
		_, _ = sim.Interpret(c, p.Devices, args)
	})
}

// fuzzRunnable bounds what FuzzDecodePlan executes: no tensor past 4096
// elements, no loop past 1024 body instructions in all — a plan file may
// name any shape and any trip count, and the plan store refuses neither.
func fuzzRunnable(c *hlo.Computation) bool {
	small := true
	c.Walk(func(in *hlo.Instruction) {
		elems := 1
		for _, d := range in.Shape {
			if d < 0 || d > 1<<12 || elems > 1<<12 {
				small = false
				return
			}
			elems *= d
		}
		small = small && elems <= 1<<12
		if in.Op == hlo.OpLoop && in.TripCount > 1<<10/max(in.Body.NumInstructions(), 1) {
			small = false
		}
	})
	return small
}

// TestKeyTracksEnvironment pins that the plan key moves with every input
// that moves measured runtimes — the program, the device count and the
// host's parallelism (GOMAXPROCS, the kernels' worker count) — and with
// nothing else. A key that failed to move with the kernel-worker count
// served stale tuning decisions; this is its regression test. Telemetry
// records in every shipped run, so flipping it (as only tests do) must
// not move the key.
func TestKeyTracksEnvironment(t *testing.T) {
	c, _ := site(4, 1)
	spec := machine.TPUv4()

	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	base := autotune.Key(c, spec, 4)

	if got := autotune.Key(c, spec, 8); got == base {
		t.Fatal("key ignored the device count")
	}
	goruntime.GOMAXPROCS(2)
	if got := autotune.Key(c, spec, 4); got == base {
		t.Fatal("key ignored GOMAXPROCS — a plan tuned under one worker count would be served under another")
	}
	goruntime.GOMAXPROCS(1)

	obs.Default().SetEnabled(false)
	key := autotune.Key(c, spec, 4)
	obs.Default().SetEnabled(true)
	if key != base {
		t.Fatal("key moved with the telemetry toggle: a plan's key reads no toggle")
	}
	if got := autotune.Key(c, spec, 4); got != base {
		t.Fatal("key is not a pure function of (program, spec, devices, GOMAXPROCS)")
	}
}

// TestSpecKeyIsKey pins the key a caller builds from a spec digested
// once: byte for byte the key Key builds, in the format it always had
// (the program fingerprint, the first 16 hex digits of the sha256 of
// Spec.Fingerprint, then the ring size and the kernels' worker count),
// on TPUv4 and on a spec one field away, whose key differs. The worker
// count is read on every call, so a held SpecKey still names another
// plan under another GOMAXPROCS.
func TestSpecKeyIsKey(t *testing.T) {
	c, _ := site(4, 1)
	fp := autotune.ProgramFingerprint(c)
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	tpu := machine.TPUv4()
	keys := map[string]bool{}
	for _, spec := range []machine.Spec{tpu, tpu.WithLinkBandwidth(tpu.LinkBandwidth / 2)} {
		held := autotune.SpecKeyOf(spec)
		for _, procs := range []int{1, 2} {
			goruntime.GOMAXPROCS(procs)
			for _, n := range []int{4, 8} {
				want := fmt.Sprintf("%s|%s|n=%d|kw=%d",
					fp, fmt.Sprintf("%x", sha256.Sum256([]byte(spec.Fingerprint())))[:16], n, procs)
				if got := held.Key(fp, n); got != want {
					t.Fatalf("%s, GOMAXPROCS %d, %d devices: held spec key names %q, want %q", spec.Fingerprint(), procs, n, got, want)
				}
				if got := autotune.Key(c, spec, n); got != want {
					t.Fatalf("%s, GOMAXPROCS %d, %d devices: Key names %q, want %q", spec.Fingerprint(), procs, n, got, want)
				}
				keys[want] = true
			}
		}
	}
	if len(keys) != 8 {
		t.Fatalf("two specs, two worker counts and two ring sizes named %d keys, want 8", len(keys))
	}
}

// TestTuneNoStaleHitAcrossKernelWorkers is the behavioral half of the
// keying regression: a decision cached under one kernel-worker count
// (GOMAXPROCS) must not answer a tune performed under another.
func TestTuneNoStaleHitAcrossKernelWorkers(t *testing.T) {
	c, args := site(2, 5)
	opts := tuneOpts(t)

	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	first, err := autotune.Tune(c, 2, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first tune hit an empty cache")
	}

	goruntime.GOMAXPROCS(2)
	second, err := autotune.Tune(c, 2, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Fatal("stale hit: decision cached under kw=1 answered a kw=2 tune")
	}
	if first.Plan.Fingerprint == second.Plan.Fingerprint {
		t.Fatal("fingerprints identical across GOMAXPROCS")
	}

	// Same environment again: now the cache must answer.
	third, err := autotune.Tune(c, 2, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Fatal("repeat tune in an unchanged environment missed the cache")
	}
}

// core4DefaultKnobs is the paper's default configuration as knobs, with
// a stable literal so the golden file does not depend on DefaultOptions
// drift.
func core4DefaultKnobs() (k core.Knobs) {
	k.Scheduler = core.SchedulerBottomUp
	k.Unroll = true
	k.Bidirectional = true
	k.FuseAddIntoEinsum = true
	k.OverlapFriendlyFusion = true
	return k
}
