package sim

import (
	"encoding/json"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
)

func traceSite() *hlo.Computation {
	c := hlo.NewComputation("trace")
	buf := c.Parameter(0, "buf", []int{1 << 20})
	a := c.Parameter(1, "a", []int{1024, 1024})
	b := c.Parameter(2, "b", []int{1024, 1024})
	start := c.CollectivePermuteStart(buf, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}})
	ein := c.Einsum("mk,kn->mn", a, b)
	_ = ein
	done := c.CollectivePermuteDone(start)
	c.AllGather(done, 0, [][]int{{0, 1}})
	return c
}

func TestSimulateTraceEvents(t *testing.T) {
	spec := machine.TPUv4()
	bd, events, err := SimulateTrace(traceSite(), 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	cats := map[string]int{}
	for _, e := range events {
		cats[e.Cat]++
		if e.Dur <= 0 || e.Start < 0 {
			t.Fatalf("degenerate span %+v", e)
		}
		if e.Device < 0 || e.Device >= 2 {
			t.Fatalf("span on unknown device %+v", e)
		}
		if e.Track != obs.TrackCompute && e.Track != obs.TrackTransfer {
			t.Fatalf("span on unknown track %+v", e)
		}
	}
	for _, want := range []string{"compute", "transfer", "collective"} {
		if cats[want] == 0 {
			t.Errorf("no %q events recorded (got %v)", want, cats)
		}
	}
	// The breakdown must match the plain simulation.
	plain, err := Simulate(traceSite(), 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.StepTime != bd.StepTime {
		t.Fatalf("tracing changed the simulation: %v vs %v", bd.StepTime, plain.StepTime)
	}
}

// TestChromeTraceWellFormed checks the simulated spans survive the one
// Chrome encoder: every span becomes one complete ("X") event on its
// device's pid and its track's tid, in microseconds.
func TestChromeTraceWellFormed(t *testing.T) {
	_, spans, err := SimulateTrace(traceSite(), 2, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := obs.NewRunTrace("t", "run", spans).ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			TS, Dur       float64
			PID, TID      int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(decoded.TraceEvents) != len(spans) {
		t.Fatalf("lost events in JSON: %d vs %d", len(decoded.TraceEvents), len(spans))
	}
	for _, e := range decoded.TraceEvents {
		if e.Ph != "X" || e.Dur <= 0 || e.TS < 0 || e.PID < 0 || e.PID >= 2 ||
			(e.TID != obs.TrackCompute && e.TID != obs.TrackTransfer) {
			t.Fatalf("malformed chrome event %+v", e)
		}
	}
}

func TestTraceDeviceWindow(t *testing.T) {
	// The recording window is deliberately part of the trace contract:
	// consumers (and the concurrent runtime, which emits on the same
	// tracks) rely on devices >= 8 being dropped, not merged.
	if obs.TraceMaxDevices != 8 {
		t.Fatalf("obs.TraceMaxDevices = %d, the documented window is 8", obs.TraceMaxDevices)
	}
	c := hlo.NewComputation("many")
	a := c.Parameter(0, "a", []int{128, 128})
	c.Einsum("mk,kn->mn", a, a)
	const devices = 32
	bd, events, err := SimulateTrace(c, devices, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, e := range events {
		if e.Device >= obs.TraceMaxDevices {
			t.Fatalf("span recorded for device %d beyond the window", e.Device)
		}
		seen[e.Device]++
	}
	// Every device inside the window is recorded; the einsum runs on
	// all 32 devices, so a missing pid would mean the window truncated
	// the wrong end.
	for d := 0; d < obs.TraceMaxDevices; d++ {
		if seen[d] == 0 {
			t.Fatalf("no events for in-window device %d (got pids %v)", d, seen)
		}
	}
	// Dropping events must not perturb the simulation itself: the
	// breakdown still averages over all 32 devices.
	plain, err := Simulate(c, devices, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	if plain.StepTime != bd.StepTime || plain.Compute != bd.Compute {
		t.Fatalf("truncation changed the simulation: %+v vs %+v", bd, plain)
	}
}
