package experiments

import (
	"strings"
	"testing"

	"overlap/internal/core"
	"overlap/internal/machine"
	"overlap/internal/models"
)

// The experiment tests assert the *shape* of the paper's results — who
// wins, in which direction each optimization moves, which models sit
// high or low — not absolute numbers.

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	r := regenerated(t, "fig12")
	text, comps := r.Text, r.Comparisons
	if len(comps) != 6 {
		t.Fatalf("expected 6 models, got %d\n%s", len(comps), text)
	}
	var moe, dense Comparison
	for _, c := range comps {
		name := c.Baseline.Config.Name
		// Every model must speed up, within the paper's reported band
		// (1.14 - 1.38x).
		if s := c.Speedup(); s < 1.05 || s > 1.5 {
			t.Errorf("%s: speedup %.2fx outside the plausible band\n%s", name, s, text)
		}
		// Exposed communication must shrink (§6.1 reports 2-3x).
		if c.CommReduction() < 1.2 {
			t.Errorf("%s: comm reduction %.2fx too small", name, c.CommReduction())
		}
		switch c.Baseline.Config.Arch {
		case models.ArchMoE:
			moe = c
		case models.ArchDense:
			dense = c
		}
	}
	// Dense models reach >60% utilization; MoE stays far below (§6.1).
	if dense.Overlapped.Utilization < 0.60 {
		t.Errorf("dense overlapped utilization %.2f below 0.60\n%s", dense.Overlapped.Utilization, text)
	}
	if moe.Overlapped.Utilization > 0.50 {
		t.Errorf("MoE overlapped utilization %.2f implausibly high", moe.Overlapped.Utilization)
	}
}

func TestFig12PeakUtilization(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	comps := regenerated(t, "fig12").Comparisons
	best := 0.0
	for _, c := range comps {
		if u := c.Overlapped.Utilization; u > best {
			best = u
		}
	}
	// The paper's headline: up to 72% of peak FLOPS.
	if best < 0.60 || best > 0.80 {
		t.Fatalf("peak overlapped utilization %.2f outside [0.60, 0.80]", best)
	}
}

func TestFig13WeakScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	comps := regenerated(t, "fig13").Comparisons
	if len(comps) != 6 {
		t.Fatalf("expected 6 GPT sizes, got %d", len(comps))
	}
	for _, c := range comps {
		if s := c.Speedup(); s < 1.1 || s > 1.4 {
			t.Errorf("%s: weak-scaling speedup %.2fx outside the paper's 1.1-1.4x band", c.Baseline.Config.Name, s)
		}
	}
}

func TestFig14UnrollingHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	ratios := regenerated(t, "fig14").Speedups
	sum := 0.0
	for i, r := range ratios {
		sum += r
		if r > 1.02 {
			t.Errorf("model %d: unrolling clearly slowed the step (ratio %.3f)", i, r)
		}
	}
	if avg := sum / float64(len(ratios)); avg > 0.99 {
		t.Errorf("unrolling shows no average benefit (mean ratio %.3f)", avg)
	}
}

func TestFig15BidirectionalHelpsLargeModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	ratios := regenerated(t, "fig15").Speedups
	// Small models see little effect (the paper: <5% for GPT_32B); the
	// largest models see clearly more.
	if ratios[0] < 0.90 {
		t.Errorf("GPT_32B gains %.1f%% from bidirectional transfer; expected a small effect", 100*(1-ratios[0]))
	}
	last := ratios[len(ratios)-1]
	if last > 0.97 {
		t.Errorf("GPT_1T gains only %.1f%% from bidirectional transfer; expected a clear effect", 100*(1-last))
	}
}

func TestFig16SchedulersComparable(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	ratios := regenerated(t, "fig16").Speedups
	// The two schedulers land within a few percent of each other (the
	// paper reports a ~5% average edge for bottom-up; our simplified
	// top-down with cost rebalancing closes most of that gap).
	for i, r := range ratios {
		if r < 0.85 || r > 1.15 {
			t.Errorf("model %d: scheduler ratio %.3f outside ±15%%", i, r)
		}
	}
}

func TestFig1CommunicationFractions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	text := regenerated(t, "fig1").Text
	if !strings.Contains(text, "GPT_1T") || !strings.Contains(text, "communication") {
		t.Fatalf("Fig1 output malformed:\n%s", text)
	}
	// Baseline comm fractions: substantial for every model (the Fig 1
	// premise) — checked via the structured path.
	for _, cfg := range models.Table1() {
		run, err := RunModel(cfg, core.Options{Spec: machine.TPUv4()}, false)
		if err != nil {
			t.Fatal(err)
		}
		f := run.Breakdown.CommFraction()
		if f < 0.15 || f > 0.85 {
			t.Errorf("%s: baseline comm fraction %.2f outside the plausible band", cfg.Name, f)
		}
	}
}

func TestInferenceLatency(t *testing.T) {
	r := regenerated(t, "inference")
	text, comp := r.Text, r.Comparisons[0]
	if comp.Speedup() < 1.3 {
		t.Fatalf("inference improvement %.2fx below 1.3x\n%s", comp.Speedup(), text)
	}
}

func TestEnergyMatchesSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	text := regenerated(t, "energy").Text
	if !strings.Contains(text, "energy reduction") {
		t.Fatalf("energy output malformed:\n%s", text)
	}
}

func TestTablesRender(t *testing.T) {
	t1, t2 := regenerated(t, "table1").Text, regenerated(t, "table2").Text
	for _, want := range []string{"GPT_1T", "GLaM_1T", "BigSSL_10B"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %s", want)
		}
	}
	for _, want := range []string{"GPT_32B", "GPT_512B"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %s", want)
		}
	}
}

func TestRunModelUtilizationBounds(t *testing.T) {
	cfg := models.Table2()[0]
	run, err := RunModel(cfg, core.DefaultOptions(machine.TPUv4()), true)
	if err != nil {
		t.Fatal(err)
	}
	if run.Utilization <= 0 || run.Utilization >= 1 {
		t.Fatalf("utilization %.2f out of (0,1)", run.Utilization)
	}
	if run.StepTime <= run.Breakdown.StepTime {
		t.Fatal("model step time must scale with layer count")
	}
}
