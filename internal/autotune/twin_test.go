package autotune

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// rankOf is stage 1's outcome on c: the ranked candidates, before stage
// 2 writes to them, and the search that ranked them.
func rankOf(c *hlo.Computation, numDevices int) ([]Candidate, *search) {
	cands := enumerated(c, numDevices)()
	s := newSearch(c, numDevices, machine.TPUv4())
	s.stage1(cands)
	return rank(cands), s
}

// warmLayers are the layer programs a daemon's warm mix serves: the
// eleven Table 1/2 models at 4 devices, dim 8. The mix's two training
// steps are corpus programs already (train.FromModel keeps only the
// dimensions, not the model).
func warmLayers(t *testing.T) []corpus.Program {
	var out []corpus.Program
	for _, name := range []string{
		"GPT_1T", "Meena_500B", "MLPerf_200B", "T5_300B", "GLaM_1T", "BigSSL_10B",
		"GPT_32B", "GPT_64B", "GPT_128B", "GPT_256B", "GPT_512B",
	} {
		cfg, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mini, err := models.Miniature(cfg, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		c, err := models.BuildLayerStep(mini)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpus.Program{Name: "warm/" + name, Devices: 4, Comp: c})
	}
	return out
}

// TestRankingIgnoresTheName is the premise Decisions rests on, in
// stage 1: the search never reads the computation's name. On every
// corpus program and every warm-mix layer, a renamed clone ranks to the
// bit as the program does — names, order, duplicates, predictions,
// errors. A stage whose output or error message came to read the name
// fails here.
func TestRankingIgnoresTheName(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(progs, warmLayers(t)...) {
		if (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		renamed := p.Comp.Clone()
		renamed.Name = "renamed." + p.Comp.Name
		if renamed.UnnamedDigest() != p.Comp.UnnamedDigest() || renamed.TextDigest() == p.Comp.TextDigest() {
			t.Fatalf("%s: the unnamed digest reads the name, or the text digest does not", p.Name)
		}
		want, _ := rankOf(p.Comp, p.Devices)
		got, _ := rankOf(renamed, p.Devices)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a renamed clone ranks differently", p.Name)
		}
	}
}

// TestWinnerIgnoresTheName is the premise Decisions rests on after
// stage 1: nothing that runs, checks or times a program reads its name.
// On every corpus program and every warm-mix layer, a renamed clone of
// the stage-2 winner executes on the runtime, interprets and times under
// the machine model's costs (breakdown and spans) to the bit as the
// winner does; and the program a twin's compile builds — the decided
// text, parsed and renamed — is what the pipeline prints for the twin
// under the winning knobs.
func TestWinnerIgnoresTheName(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.TPUv4()
	opts := Options{Spec: spec, TopK: 1, TimeScale: -1, DisableCache: true}
	for _, p := range append(progs, warmLayers(t)...) {
		if (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		args := randomArgs(p.Comp, 5)
		res, err := Tune(p.Comp, p.Devices, args, opts)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		winner, err := res.Plan.Computation()
		if err != nil {
			t.Fatal(err)
		}
		renamed := winner.Clone()
		renamed.Name = "renamed." + winner.Name

		outs := func(c *hlo.Computation) (run, interp [][]*tensor.Tensor) {
			exe, err := runtime.Compile(c, p.Devices, spec)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			r, err := exe.Run(context.Background(), args, runtime.Options{})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			all, err := sim.InterpretAll(c, p.Devices, args)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			outputs := []*hlo.Instruction{c.Root()}
			if root := c.Root(); root.Op == hlo.OpTuple {
				outputs = root.Operands
			}
			for _, out := range outputs {
				if len(r.All[out]) != p.Devices || len(all[out]) != p.Devices {
					t.Fatalf("%s: %s is not held for every device", p.Name, out.Name)
				}
				run, interp = append(run, r.All[out]), append(interp, all[out])
			}
			return run, interp
		}
		wantRun, wantInterp := outs(winner)
		gotRun, gotInterp := outs(renamed)
		if !equalTensors(gotRun, wantRun) {
			t.Errorf("%s: winner %s renamed executes to other outputs", p.Name, res.Plan.BestName)
		}
		if !equalTensors(gotInterp, wantInterp) {
			t.Errorf("%s: winner %s renamed interprets to other outputs", p.Name, res.Plan.BestName)
		}

		timed := func(c *hlo.Computation) (sim.Breakdown, []obs.Span) {
			s := sim.NewSchedule(c, p.Devices, spec)
			return s.Model(make([]obs.Span, 0, s.Spans))
		}
		wantStep, wantSpans := timed(winner)
		gotStep, gotSpans := timed(renamed)
		if gotStep != wantStep || !reflect.DeepEqual(gotSpans, wantSpans) {
			t.Errorf("%s: winner %s renamed times differently under the model's costs", p.Name, res.Plan.BestName)
		}

		twin := p.Comp.Clone()
		twin.Name = "twin." + p.Comp.Name
		built, err := twinProgram(res.Plan, twin)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !res.Plan.Baseline {
			if _, err := core.Apply(twin, core.Options{Spec: spec, Knobs: res.Plan.Knobs}); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
		if got, want := built.Format(), twin.Format(); got != want {
			t.Errorf("%s: the twin's program is not the pipeline's under %s:\n--- twin ---\n%s--- pipeline ---\n%s",
				p.Name, res.Plan.BestName, got, want)
		}
	}
}

// TestCompileHandsOverTheCheckedProgram: what CompileKeyed returns
// beside its plan — the program and the Executable the compile checked
// it on, or for a stored plan the program its decode parsed, lowered
// once — is the plan's own program. On every corpus program and every
// warm-mix layer, for a searched compile, a disk-tier hit, and a disk-tier
// hit for a twin (the body under another name), the returned program
// prints as Plan.Program byte for byte; its Executable, run on the
// compile's arguments, gives bitwise the outputs of the plan's text
// parsed and compiled afresh; and the two programs time alike under the
// model's costs (breakdown and spans). A server that caches the returned
// pair therefore serves what a parse and a lowering of the plan would.
func TestCompileHandsOverTheCheckedProgram(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.TPUv4()
	for _, p := range append(progs, warmLayers(t)...) {
		if (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		opts := Options{Spec: spec, TopK: 1, TimeScale: -1, CachePath: t.TempDir()}
		twin := p.Comp.Clone()
		twin.Name = "twin." + p.Comp.Name
		for _, step := range []struct {
			path string
			c    *hlo.Computation
		}{
			{"searched", p.Comp},
			{"disk hit", p.Comp},
			{"twin's disk hit", twin},
		} {
			args := randomArgs(step.c, 7)
			hits := atCacheHits.Value()
			plan, prog, exe, err := CompileKeyed("", step.c, p.Devices, args, opts)
			if err != nil {
				t.Fatalf("%s, %s compile: %v", p.Name, step.path, err)
			}
			if hit := atCacheHits.Value() == hits+1; hit != (step.path != "searched") {
				t.Fatalf("%s: the %s compile hit the store: %v", p.Name, step.path, hit)
			}
			if got := prog.Format(); got != plan.Program {
				t.Fatalf("%s, %s compile: the returned program is not the plan's:\n--- returned ---\n%s--- plan ---\n%s",
					p.Name, step.path, got, plan.Program)
			}
			fresh, err := plan.Computation()
			if err != nil {
				t.Fatal(err)
			}
			freshExe, err := runtime.Compile(fresh, plan.Devices, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !equalTensors(runOutputs(t, p, exe, prog, args), runOutputs(t, p, freshExe, fresh, args)) {
				t.Errorf("%s, %s compile: the returned Executable runs %s to other outputs than the plan's text does",
					p.Name, step.path, plan.BestName)
			}
			gotStep, gotSpans := modelTimed(prog, plan.Devices, spec)
			wantStep, wantSpans := modelTimed(fresh, plan.Devices, spec)
			if gotStep != wantStep || !reflect.DeepEqual(gotSpans, wantSpans) {
				t.Errorf("%s, %s compile: the returned program times differently from the plan's text under the model's costs",
					p.Name, step.path)
			}
		}
	}
}

// twinProgram is p's program as a twin's, c's: the decided text, parsed
// for the ring, under c's name.
func twinProgram(p *Plan, c *hlo.Computation) (*hlo.Computation, error) {
	prog, err := p.Computation()
	if err != nil {
		return nil, err
	}
	prog.Name = c.Name
	return prog, nil
}

// runOutputs runs exe, compiled from c, on args and returns c's outputs:
// one per root operand when the root is a tuple, each held for every
// device.
func runOutputs(t *testing.T, p corpus.Program, exe *runtime.Executable, c *hlo.Computation, args [][]*tensor.Tensor) [][]*tensor.Tensor {
	t.Helper()
	r, err := exe.Run(context.Background(), args, runtime.Options{})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	outputs := []*hlo.Instruction{c.Root()}
	if root := c.Root(); root.Op == hlo.OpTuple {
		outputs = root.Operands
	}
	var out [][]*tensor.Tensor
	for _, in := range outputs {
		if len(r.All[in]) != p.Devices {
			t.Fatalf("%s: %s is not held for every device", p.Name, in.Name)
		}
		out = append(out, r.All[in])
	}
	return out
}

// modelTimed is c's timing pass under the model's costs: its breakdown and
// spans.
func modelTimed(c *hlo.Computation, numDevices int, spec machine.Spec) (sim.Breakdown, []obs.Span) {
	s := sim.NewSchedule(c, numDevices, spec)
	return s.Model(make([]obs.Span, 0, s.Spans))
}

// randomArgs supplies one replicated random tensor per parameter.
func randomArgs(c *hlo.Computation, seed int64) [][]*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	params := c.Parameters()
	args := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		args[i] = []*tensor.Tensor{tensor.Rand(rng, p.Shape...)}
	}
	return args
}

// equalTensors reports whether a and b hold the same values on the same
// devices, bit for bit.
func equalTensors(a, b [][]*tensor.Tensor) bool {
	return slices.EqualFunc(a, b, func(x, y []*tensor.Tensor) bool {
		return slices.EqualFunc(x, y, (*tensor.Tensor).Equal)
	})
}
