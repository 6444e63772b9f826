package core

import (
	"encoding/json"
	"strings"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/topology"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

func multiGatherProgram(n int) *hlo.Computation {
	groups := topology.NewRing(n).AxisGroups(0)
	c := hlo.NewComputation("multi")
	a := c.Parameter(0, "a", []int{4, 8})
	b := c.Parameter(1, "b", []int{8, 6})
	d := c.Parameter(2, "d", []int{8, 6})
	full := c.AllGather(a, 0, groups)
	e1 := c.Einsum("mk,kn->mn", full, b)
	e2 := c.Einsum("mk,kn->mn", full, d)
	c.Add(e1, e2)
	return c
}

func singleGatherProgram(n int) *hlo.Computation {
	groups := topology.NewRing(n).AxisGroups(0)
	c := hlo.NewComputation("single")
	a := c.Parameter(0, "a", []int{4, 8})
	b := c.Parameter(1, "b", []int{8, 6})
	full := c.AllGather(a, 0, groups)
	c.Einsum("mk,kn->mn", full, b)
	return c
}

func TestEnumerateOptionsPruning(t *testing.T) {
	spec := machine.TPUv4()

	even := EnumerateOptions(spec, 4, singleGatherProgram(4))
	odd := EnumerateOptions(spec, 5, singleGatherProgram(5))

	count := func(opts []Options, pred func(Options) bool) int {
		n := 0
		for _, o := range opts {
			if pred(o) {
				n++
			}
		}
		return n
	}

	if got := count(odd, func(o Options) bool { return o.Bidirectional }); got != 0 {
		t.Errorf("odd ring enumerated %d bidirectional candidates", got)
	}
	if got := count(even, func(o Options) bool { return o.Bidirectional }); got == 0 {
		t.Error("even ring enumerated no bidirectional candidates")
	}
	if got := count(even, func(o Options) bool { return o.Rolled }); got != 1 {
		t.Errorf("enumerated %d rolled candidates, want exactly 1", got)
	}
	if got := count(even, func(o Options) bool { return o.OverlapFriendlyFusion && !o.FuseAddIntoEinsum }); got != 0 {
		t.Errorf("%d candidates set the fusion heuristic without fusion", got)
	}
	if got := count(even, func(o Options) bool { return o.UseCostModel }); got != 0 {
		t.Errorf("%d candidates left the per-site cost-model gate on", got)
	}

	// RematerializeGathers only enumerates when the program has a
	// multi-consumer gather to rewrite.
	if got := count(even, func(o Options) bool { return o.RematerializeGathers }); got != 0 {
		t.Errorf("single-consumer program enumerated %d remat candidates", got)
	}
	multi := EnumerateOptions(spec, 4, multiGatherProgram(4))
	if got := count(multi, func(o Options) bool { return o.RematerializeGathers }); got == 0 {
		t.Error("multi-consumer program enumerated no remat candidates")
	}

	// The paper's default configuration must be representable in the
	// enumerated space (cost model off — the search is the gate).
	def := DefaultOptions(spec)
	def.UseCostModel = false
	found := false
	for _, o := range even {
		if o.Fingerprint() == def.Fingerprint() {
			found = true
		}
	}
	if !found {
		t.Error("DefaultOptions configuration missing from the enumeration")
	}

	// Fingerprints are unique within one enumeration.
	seen := map[string]bool{}
	for _, o := range even {
		fp := o.Fingerprint()
		if seen[fp] {
			t.Errorf("duplicate fingerprint %s", fp)
		}
		seen[fp] = true
	}
}

// skinnyProgram has an einsum whose decomposed partials are one output
// row against a 4096-long contraction — the shape the split-K gate
// accepts.
func skinnyProgram(n int) *hlo.Computation {
	groups := topology.NewRing(n).AxisGroups(0)
	c := hlo.NewComputation("skinny")
	a := c.Parameter(0, "a", []int{n, 4096})
	b := c.Parameter(1, "b", []int{4096, 64})
	full := c.AllGather(a, 0, groups)
	c.Einsum("mk,kn->mn", full, b)
	return c
}

func TestEnumerateOptionsSplitKGating(t *testing.T) {
	spec := machine.TPUv4()
	count := func(opts []Options, pred func(Options) bool) int {
		n := 0
		for _, o := range opts {
			if pred(o) {
				n++
			}
		}
		return n
	}

	// The miniature fat-shaped programs must not enumerate the factor —
	// every value executes identically there, and doubling the space
	// for nothing would slow every tune.
	fat := EnumerateOptions(spec, 4, singleGatherProgram(4))
	if got := count(fat, func(o Options) bool { return o.KernelSplitK != 0 }); got != 0 {
		t.Errorf("fat program enumerated %d split-K candidates", got)
	}

	skinny := EnumerateOptions(spec, 4, skinnyProgram(4))
	if got := count(skinny, func(o Options) bool { return o.KernelSplitK == 2 }); got == 0 {
		t.Error("skinny program enumerated no split-K=2 candidates")
	}
	if got := count(skinny, func(o Options) bool { return o.KernelSplitK == 4 }); got == 0 {
		t.Error("skinny program enumerated no split-K=4 candidates")
	}
	if got := count(skinny, func(o Options) bool { return o.Rolled && o.KernelSplitK != 0 }); got != 0 {
		t.Errorf("%d rolled candidates carry a split-K factor", got)
	}

	// Fingerprints must separate candidates that differ only in the
	// factor — the emitted program text is identical.
	seen := map[string]bool{}
	for _, o := range skinny {
		fp := o.Fingerprint()
		if seen[fp] {
			t.Fatalf("duplicate fingerprint %s", fp)
		}
		seen[fp] = true
	}
}

func TestKnobsRoundTripKernelSplitK(t *testing.T) {
	k := DefaultOptions(machine.TPUv4()).Knobs
	k.KernelSplitK = 4
	var back Knobs
	if err := json.Unmarshal([]byte(mustJSON(t, k)), &back); err != nil || back != k {
		t.Fatalf("Knobs JSON round trip: got %+v (%v), want %+v", back, err, k)
	}
	// The zero factor must be invisible in the serialized form so plan
	// artifacts written before the knob existed stay byte-identical.
	k.KernelSplitK = 0
	if data := mustJSON(t, k); strings.Contains(data, "kernel_split_k") {
		t.Fatalf("zero split-K factor serialized: %s", data)
	}
}

// TestSchedulerNames: a plan file names its scheduler, and an unknown
// name — from a future version, or a hand-edited file — or none at all
// decodes to SchedulerNone, the conservative choice.
func TestSchedulerNames(t *testing.T) {
	for _, data := range []string{`{}`, `{"unroll":true}`} {
		var k Knobs
		if err := json.Unmarshal([]byte(data), &k); err != nil || k.Scheduler != SchedulerNone {
			t.Errorf("%s decodes to scheduler %v (%v), want none", data, k.Scheduler, err)
		}
	}
	for name, want := range map[string]SchedulerKind{
		"bottom-up": SchedulerBottomUp,
		"top-down":  SchedulerTopDown,
		"none":      SchedulerNone,
		"sideways":  SchedulerNone,
		"":          SchedulerNone,
	} {
		var k Knobs
		if err := json.Unmarshal([]byte(`{"scheduler":"`+name+`"}`), &k); err != nil || k.Scheduler != want {
			t.Errorf("scheduler %q decodes to %v (%v), want %v", name, k.Scheduler, err, want)
		}
		if name != "" && name != "sideways" && mustJSON(t, Knobs{Scheduler: want}) != `{"scheduler":"`+name+`"}` {
			t.Errorf("%v does not encode as %q", want, name)
		}
	}
}

func TestOptionsFingerprint(t *testing.T) {
	spec := machine.TPUv4()
	a := DefaultOptions(spec)
	b := DefaultOptions(spec)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal options fingerprint differently")
	}
	b.Unroll = false
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("unroll change invisible to fingerprint")
	}
	// The spec is priced separately (cache key), not in the knobs.
	c := DefaultOptions(machine.GPUCluster())
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("fingerprint depends on the machine spec")
	}
	if !strings.Contains(a.Fingerprint(), "sched=bottom-up") {
		t.Fatalf("fingerprint %q does not name the scheduler", a.Fingerprint())
	}
}

func TestDefaultOptionsRejectInvalidSpec(t *testing.T) {
	bad := machine.TPUv4()
	bad.LinkBandwidth = -1
	defer func() {
		if recover() == nil {
			t.Error("DefaultOptions accepted an invalid spec")
		}
	}()
	DefaultOptions(bad)
}
