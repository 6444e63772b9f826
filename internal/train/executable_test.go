package train_test

import (
	"context"
	"sync"
	"testing"

	"overlap/internal/core"
	"overlap/internal/train"
)

// digestsOf is a run's per-step loss and digests.
func digestsOf(res *train.Result) []train.StepStat {
	out := make([]train.StepStat, len(res.Steps))
	for i, st := range res.Steps {
		out[i] = train.StepStat{Loss: st.Loss, GradDigest: st.GradDigest, WeightDigest: st.WeightDigest}
	}
	return out
}

func sameSteps(t *testing.T, label string, got, want []train.StepStat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: step %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestExecuteAfterApplyRunsTheNewProgram: an Execute runs the Comp as
// it stands, never a tape lowered from it before a transformation.
// Execute the untransformed step, apply the overlap pipeline to the
// same Comp, and Execute again: the steps are checked against the
// interpreter on the program as it now stands, and every digest equals
// a fresh Program's under the same pipeline. A stale tape knows none of
// the rewritten outputs, so the digests of its results would be of
// nothing.
func TestExecuteAfterApplyRunsTheNewProgram(t *testing.T) {
	for _, s := range []train.Strategy{train.StrategyMegatron, train.StrategyDDP} {
		cfg := testConfig(s)
		opts := train.Options{Steps: 2, Seed: 5, LR: 1.0 / 1024, Check: true}
		pipeline := overlapOptions()
		prog, err := train.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := train.Execute(context.Background(), prog, &train.Result{Config: cfg}, opts); err != nil {
			t.Fatalf("%s: untransformed: %v", s, err)
		}
		report, err := core.Apply(prog.Comp, pipeline)
		if err != nil {
			t.Fatal(err)
		}
		got, err := train.Execute(context.Background(), prog, &train.Result{Config: cfg, Report: report}, opts)
		if err != nil {
			t.Fatalf("%s: after the pipeline: %v", s, err)
		}

		fresh, err := train.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		freshReport, err := core.Apply(fresh.Comp, pipeline)
		if err != nil {
			t.Fatal(err)
		}
		want, err := train.Execute(context.Background(), fresh, &train.Result{Config: cfg, Report: freshReport}, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameSteps(t, s.String(), digestsOf(got), digestsOf(want))
		for i, st := range got.Steps {
			if !st.Checked {
				t.Fatalf("%s: step %d after the pipeline was not checked", s, i)
			}
		}
	}
}

// TestConcurrentExecutesOfOneProgram: Executes of one Program share
// its Comp, which each one lowers and reads while the others run it,
// and the arena's free lists, which every step draws from and releases
// into. Eight goroutines Execute one Program at once, and every run's
// steps equal a serial run's digest for digest.
func TestConcurrentExecutesOfOneProgram(t *testing.T) {
	const workers = 8
	cfg := testConfig(train.StrategyMegatron)
	opts := train.Options{Steps: 3, Seed: 11, LR: 1.0 / 1024}
	pipeline := overlapOptions()
	build := func() (*train.Program, core.Report) {
		prog, err := train.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, err := core.Apply(prog.Comp, pipeline)
		if err != nil {
			t.Fatal(err)
		}
		return prog, report
	}
	ref, refReport := build()
	serial, err := train.Execute(context.Background(), ref, &train.Result{Config: cfg, Report: refReport}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := digestsOf(serial)

	prog, report := build()
	got := make([]*train.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = train.Execute(context.Background(), prog, &train.Result{Config: cfg, Report: report}, opts)
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("goroutine %d: %v", w, errs[w])
		}
		sameSteps(t, "a concurrent Execute", digestsOf(got[w]), want)
	}
}
