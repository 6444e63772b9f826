package overlap

import (
	"math/rand"
	"strings"
	"testing"

	"overlap/internal/tensor"
)

// TestFacadeEndToEnd drives the public API exactly as the README's
// quickstart does: build, apply, simulate, interpret.
func TestFacadeEndToEnd(t *testing.T) {
	const n = 4
	build := func() *Computation {
		c := NewComputation("facade")
		groups := NewRing(n).AxisGroups(0)
		act := c.Parameter(0, "act", []int{8, 16})
		w := c.Parameter(1, "w", []int{4, 24})
		full := c.AllGather(w, 0, groups)
		c.Einsum("bf,fh->bh", act, full)
		return c
	}
	spec := TPUv4()

	baseline := build()
	baseBd, err := Simulate(baseline, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	overlapped := build()
	opts := DefaultOptions(spec)
	opts.UseCostModel = false
	report, err := Apply(overlapped, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.SitesDecomposed != 1 {
		t.Fatalf("report = %+v", report)
	}
	overBd, err := Simulate(overlapped, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	if overBd.StepTime <= 0 || baseBd.StepTime <= 0 {
		t.Fatal("degenerate step times")
	}

	rng := rand.New(rand.NewSource(5))
	args := [][]*Tensor{
		{tensor.Rand(rng, 8, 16)},
		{tensor.Rand(rng, 4, 24), tensor.Rand(rng, 4, 24), tensor.Rand(rng, 4, 24), tensor.Rand(rng, 4, 24)},
	}
	want, err := Interpret(baseline, n, args)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Interpret(overlapped, n, args)
	if err != nil {
		t.Fatal(err)
	}
	for d := range want {
		if !got[d].AllClose(want[d], 1e-9) {
			t.Fatalf("device %d diverged", d)
		}
	}
}

func TestFacadeModelAccessors(t *testing.T) {
	if len(Table1Models()) != 6 || len(Table2Models()) != 6 {
		t.Fatal("table accessors wrong")
	}
	c, err := BuildLayerStep(Table2Models()[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.NumInstructions() == 0 {
		t.Fatal("empty layer graph")
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	if _, err := RunExperiment("nope", TPUv4()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	out, err := RunExperiment("table1", TPUv4())
	if err != nil || !strings.Contains(out, "GPT_1T") {
		t.Fatalf("table1 = %v, %v", out, err)
	}
	if len(ExperimentIDs()) != 15 {
		t.Fatalf("ExperimentIDs = %v", ExperimentIDs())
	}
}

func TestRunExperimentStructured(t *testing.T) {
	s, err := RunExperimentStructured("inference", TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	if s.Experiment != "inference" || len(s.Speedups) != 1 || s.Speedups[0] <= 0 {
		t.Fatalf("structured = %+v", s)
	}
	if !strings.Contains(s.Text, "improvement") {
		t.Fatalf("text = %q", s.Text)
	}
}

// TestFacadeAutotune drives Autotune + Miniature through the public
// API: tune a miniature layer, apply the winner, and confirm a re-tune
// against the same cache is a warm hit with zero executions.
func TestFacadeAutotune(t *testing.T) {
	cfg, err := Miniature(Table2Models()[0], 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildLayerStep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var args [][]*Tensor
	for _, p := range c.Parameters() {
		args = append(args, []*Tensor{tensor.Rand(rng, p.Shape...)})
	}
	opts := AutotuneOptions{Spec: TPUv4(), TopK: 1, TimeScale: 25, CachePath: t.TempDir() + "/plans"}
	res, err := Autotune(c, 4, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions == 0 || res.Plan.MeasuredSec <= 0 {
		t.Fatalf("cold tune did not execute: %+v", res)
	}
	if _, err := res.ApplyBest(c.Clone()); err != nil {
		t.Fatalf("ApplyBest: %v", err)
	}
	warm, err := Autotune(c, 4, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || warm.Executions != 0 {
		t.Fatalf("warm tune re-executed: hit=%v executions=%d", warm.CacheHit, warm.Executions)
	}
	if *warm.Plan != *res.Plan {
		t.Fatal("warm decision differs from cold decision")
	}
}

func TestRunExperimentInference(t *testing.T) {
	out, err := RunExperiment("inference", TPUv4())
	if err != nil || !strings.Contains(out, "improvement") {
		t.Fatalf("inference = %q, %v", out, err)
	}
}
