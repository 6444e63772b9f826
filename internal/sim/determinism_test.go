package sim_test

import (
	"bytes"
	"testing"

	"overlap/internal/core"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/obs"
	"overlap/internal/sim"
)

// TestSimulateTraceDeterministic pins a byte-identical Chrome trace
// across two identical SimulateTrace runs: the trace path must stay
// free of map-iteration or other nondeterminism, or recorded timelines
// stop being diffable across revisions.
func TestSimulateTraceDeterministic(t *testing.T) {
	cfg, err := models.Miniature(models.Table2()[0], 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	build := func() []byte {
		c, err := models.BuildLayerStep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions(machine.TPUv4())
		opts.UseCostModel = false
		if _, err := core.Apply(c, opts); err != nil {
			t.Fatal(err)
		}
		_, events, err := sim.SimulateTrace(c, 4, machine.TPUv4())
		if err != nil {
			t.Fatal(err)
		}
		data, err := obs.NewRunTrace("t", "run", events).ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatal("no events traced")
		}
		return data
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical SimulateTrace runs diverged: %d vs %d bytes", len(a), len(b))
	}
}
