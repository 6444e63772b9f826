package sim_test

import (
	goruntime "runtime"
	"testing"

	"overlap/internal/corpus"
	"overlap/internal/machine"
	"overlap/internal/sim"
)

// TestSimulateAllocatesWhatItNeeds pins the bytes one sim.Simulate call
// allocates on the corpus' GPT_32B/n4 layer: the schedule — its ops,
// its communications, and every per-device column in one array — and
// the pass's state, with a row of arrivals per point-to-point
// communication and none per group collective. The tuner's stage 1
// calls Simulate about fifty times a compile, so these bytes are paid
// per ranked program.
func TestSimulateAllocatesWhatItNeeds(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.TPUv4()
	const budget = 2662 // 2.6 KiB
	for _, p := range progs {
		if p.Name != "GPT_32B/n4" {
			continue
		}
		if _, err := sim.Simulate(p.Comp, p.Devices, spec); err != nil {
			t.Fatal(err)
		}
		const calls = 1000
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		for range calls {
			sim.Simulate(p.Comp, p.Devices, spec)
		}
		goruntime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("%s: %d B per Simulate", p.Name, perCall)
		if perCall > budget {
			t.Errorf("%s: Simulate allocates %d B per call, budget %d", p.Name, perCall, budget)
		}
		return
	}
	t.Fatal("no GPT_32B/n4 in the corpus")
}
