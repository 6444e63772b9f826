package sim

import (
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/topology"
)

// TestSimulateRecordsMetrics checks the simulator's reporting path: one
// Simulate call must bump the run counter, the instruction counter, and
// the last-run gauges in the process-wide registry.
func TestSimulateRecordsMetrics(t *testing.T) {
	r := obs.Default()
	runs := r.Counter("overlap_sim_runs_total", "")
	instrs := r.Counter("overlap_sim_instructions_total", "")
	lastStep := r.Gauge("overlap_sim_last_step_seconds", "")

	c := hlo.NewComputation("m")
	a := c.Parameter(0, "a", []int{8, 8})
	b := c.Parameter(1, "b", []int{8, 8})
	c.Einsum("ij,jk->ik", a, b)
	c.AllReduce(c.Root(), topology.NewRing(2).AxisGroups(0))

	runs0, instrs0 := runs.Value(), instrs.Value()
	bd, err := Simulate(c, 2, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Value() - runs0; got != 1 {
		t.Fatalf("run counter moved by %v, want 1", got)
	}
	if got := instrs.Value() - instrs0; got != 4 {
		t.Fatalf("instruction counter moved by %v, want 4", got)
	}
	if lastStep.Value() != bd.StepTime {
		t.Fatalf("last step gauge = %v, want %v", lastStep.Value(), bd.StepTime)
	}
}

// TestBenchShims pins what the frozen bench/ relies on: Spans hands
// back the same slice (no copy, no unit change) and Attribute is
// obs.Attribute.
func TestBenchShims(t *testing.T) {
	in := []obs.Span{
		{Device: 3, Track: obs.TrackTransfer, Cat: obs.CatTransfer, Name: "x", Start: 2, Dur: 0.5},
	}
	out := Spans(in)
	if len(out) != 1 || &out[0] != &in[0] {
		t.Fatalf("Spans copied or resized its input: %+v", out)
	}
	if got, want := Attribute(in), obs.Attribute(in); got.TotalWire != want.TotalWire || got.TotalWire != 0.5 {
		t.Fatalf("Attribute = %+v, obs.Attribute = %+v", got, want)
	}
}

// TestRecordAllocatesNothing: Record runs after every runtime run and
// every Simulate, so once a scope's handles are resolved it updates
// them without allocating — and the scope's metrics exist only from its
// first Record on.
func TestRecordAllocatesNothing(t *testing.T) {
	const name = "overlap_recordtest_runs_total"
	registered := func() bool {
		for _, m := range obs.Default().Snapshot() {
			if m.Name == name {
				return true
			}
		}
		return false
	}
	if registered() {
		t.Fatalf("%s exists before its scope's first Record", name)
	}
	b := Breakdown{StepTime: 2, Compute: 1, Exposed: 0.5, AsyncTransfers: 3}
	b.Record("recordtest")
	if !registered() {
		t.Fatalf("%s is missing after its scope's first Record", name)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Record("recordtest") }); allocs != 0 {
		t.Fatalf("Record allocates %v times per call", allocs)
	}
	// The first Record, then AllocsPerRun's warm-up call and its 100.
	if got := obs.Default().Counter(name, "").Value(); got != 102 {
		t.Fatalf("%s = %v after 102 Records", name, got)
	}
}
