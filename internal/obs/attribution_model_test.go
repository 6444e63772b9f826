package obs_test

// Acceptance test for the overlap-attribution analyzer on a real
// program: the decomposed + scheduled miniature GPT ring must show
// collectives hidden under the partial einsums of the decomposition,
// while the rolled blocking baseline must show its collectives exposed.
// This is the per-op analogue of the paper's Figure 9, asserted.

import (
	"testing"

	"overlap/internal/core"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/obs"
	"overlap/internal/sim"
)

// gptRingAttribution builds the miniature GPT layer step, applies the
// given pipeline options, and attributes its simulated trace.
func gptRingAttribution(t *testing.T, devices int, configure func(*core.Options) bool) obs.AttributionReport {
	t.Helper()
	cfg, err := models.Miniature(models.Table2()[0], devices, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := models.BuildLayerStep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(machine.TPUv4())
	if configure(&opts) {
		if _, err := core.Apply(c, opts); err != nil {
			t.Fatal(err)
		}
	}
	_, events, err := sim.SimulateTrace(c, devices, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	return obs.Attribute(events)
}

func TestAttributionDecomposedHidesRolledExposes(t *testing.T) {
	const devices = 4

	decomposed := gptRingAttribution(t, devices, func(o *core.Options) bool {
		o.UseCostModel = false // miniature shapes would not pass the full-size gate
		return true
	})
	rolled := gptRingAttribution(t, devices, func(o *core.Options) bool {
		*o = core.Options{Spec: o.Spec, Knobs: core.Knobs{Rolled: true, UseCostModel: false, Scheduler: core.SchedulerNone}}
		return true
	})

	// The decomposed schedule must hide at least one collective's wire
	// time majority under compute.
	hidden := 0
	for _, a := range decomposed.Collectives {
		if a.Wire > 0 && a.HiddenFraction() >= 0.5 {
			hidden++
			if len(a.Under) == 0 {
				t.Errorf("collective %s is %0.f%% hidden but attributes no compute spans",
					a.Name, 100*a.HiddenFraction())
			}
		}
	}
	if hidden == 0 {
		t.Fatalf("decomposed program hides no collective >= 50%%:\n%s", decomposed.Render())
	}

	// The rolled baseline keeps blocking permutes: every collective with
	// wire time must be >= 90% exposed (in fact 100%).
	if len(rolled.Collectives) == 0 {
		t.Fatal("rolled program attributed no collectives")
	}
	for _, a := range rolled.Collectives {
		if a.Wire > 0 && a.ExposedFraction() < 0.9 {
			t.Errorf("rolled collective %s only %0.1f%% exposed", a.Name, 100*a.ExposedFraction())
		}
	}

	// And the aggregate scalar must order the two programs correctly.
	if decomposed.OverlapEfficiency() <= rolled.OverlapEfficiency() {
		t.Fatalf("overlap efficiency: decomposed %.2f <= rolled %.2f",
			decomposed.OverlapEfficiency(), rolled.OverlapEfficiency())
	}
	if decomposed.OverlapEfficiency() < 0.5 {
		t.Fatalf("decomposed overlap efficiency %.2f < 0.5:\n%s",
			decomposed.OverlapEfficiency(), decomposed.Render())
	}
}
