package core_test

import (
	"reflect"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/machine"
)

// TestEveryKnobHasAStage is the guard that keeps a knob from being
// forgotten: by reflection over core.Options, every field other than
// Spec is claimed by exactly one stage's key, moves Fingerprint, and
// round-trips through Knobs. A knob no stage claims would make two
// candidates of a search share a memoised program they should not.
func TestEveryKnobHasAStage(t *testing.T) {
	spec := machine.TPUv4()
	typ := reflect.TypeOf(core.Options{})
	last := len(core.Stages()) - 1
	for f := 0; f < typ.NumField(); f++ {
		field := typ.Field(f)
		if field.Name == "Spec" {
			continue // ambient to a search, not a knob: see PrefixKey
		}
		var o core.Options
		switch v := reflect.ValueOf(&o).Elem().Field(f); v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(2) // also a valid SchedulerKind and split-K factor
		default:
			t.Fatalf("Options.%s has kind %s: teach this test to set it", field.Name, v.Kind())
		}

		var claimedBy []string
		prev := core.Options{}
		for i, st := range core.Stages() {
			key := core.PrefixKey(i, o)
			if key != prev {
				claimedBy = append(claimedBy, st.Name)
			}
			prev = key
		}
		if len(claimedBy) != 1 {
			t.Errorf("Options.%s is claimed by stages %v, want exactly one: copy it in the reads of the stage whose body reads it", field.Name, claimedBy)
		}
		if core.PrefixKey(last, o) != o {
			t.Errorf("Options.%s does not survive into the full prefix key", field.Name)
		}
		if o.Fingerprint() == (core.Options{}).Fingerprint() {
			t.Errorf("Options.%s does not appear in Fingerprint()", field.Name)
		}

		want := o
		want.Spec = spec
		if field.Name == "UseCostModel" {
			// Knobs omits it on purpose: a persisted decision replaces
			// the per-site gate, so it is never the cost model's to
			// re-take when the artifact is decoded.
			want.UseCostModel = false
		}
		if got := o.Knobs().Options(spec); got != want {
			t.Errorf("Options.%s does not round-trip through Knobs: %+v", field.Name, got)
		}
	}
}

// TestSchedulersShareTheAsyncStage: Scheduler is the one knob two
// stages read. The async stage reads only whether it is SchedulerNone,
// so both overlap schedulers must share a prefix key there — a search
// makes a program asynchronous once and orders it per scheduler — and
// part at the order stage. (TestEveryKnobHasAStage sets the knob to
// SchedulerNone, which the async stage's key already tells apart, and
// so still finds exactly one claimant.)
func TestSchedulersShareTheAsyncStage(t *testing.T) {
	key := func(stage int, s core.SchedulerKind) core.Options {
		return core.PrefixKey(stage, core.Options{Scheduler: s})
	}
	if key(core.StageAsync, core.SchedulerBottomUp) != key(core.StageAsync, core.SchedulerTopDown) {
		t.Error("the overlap schedulers have different async prefix keys: their async program would be built twice")
	}
	if key(core.StageAsync, core.SchedulerBottomUp) == key(core.StageAsync, core.SchedulerNone) {
		t.Error("SchedulerNone shares the overlap schedulers' async prefix key")
	}
	if key(core.StageOrder, core.SchedulerBottomUp) == key(core.StageOrder, core.SchedulerTopDown) {
		t.Error("the overlap schedulers share an order prefix key")
	}
	stages := core.Stages()
	for _, s := range []core.SchedulerKind{core.SchedulerBottomUp, core.SchedulerTopDown, core.SchedulerNone} {
		o := core.Options{Scheduler: s}
		if none := s == core.SchedulerNone; stages[core.StageAsync].Identity(o) != none || stages[core.StageOrder].Identity(o) != none {
			t.Errorf("%v: async and order must be the identity exactly under SchedulerNone", s)
		}
	}
}

// TestStagesOverCorpus runs the pipeline one stage at a time for every
// enumerated Options on every corpus program, without any memo, and
// checks what a search that memoises on the stage table relies on:
//
//   - every stage leaves verifiable IR (Apply itself verifies only at
//     the end, Decompose per site) that still fits the program's ring
//     (VerifyRing: the corpus passes it before any stage, too);
//   - two Options that agree on a stage's prefix key have the same text
//     after that stage;
//   - a stage that declares itself the identity changes nothing.
func TestStagesOverCorpus(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.TPUv4()
	type stageKey struct {
		stage int
		knobs core.Options
	}
	for _, p := range progs {
		if (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		if err := p.Comp.VerifyRing(p.Devices); err != nil {
			t.Fatalf("%s does not fit its %d-device ring: %v", p.Name, p.Devices, err)
		}
		after := map[stageKey]string{}
		for _, o := range core.EnumerateOptions(spec, p.Devices, p.Comp) {
			c := p.Comp.Clone()
			text := c.Format()
			var report core.Report
			for i, st := range core.Stages() {
				if err := st.Run(c, o, &report); err != nil {
					t.Fatalf("%s: %s under %s: %v", p.Name, st.Name, o.Fingerprint(), err)
				}
				if err := c.Verify(); err != nil {
					t.Fatalf("%s: %s under %s left unverifiable IR: %v", p.Name, st.Name, o.Fingerprint(), err)
				}
				if err := c.VerifyRing(p.Devices); err != nil {
					t.Fatalf("%s: %s under %s left a program its %d-device ring cannot run: %v", p.Name, st.Name, o.Fingerprint(), p.Devices, err)
				}
				prev := text
				text = c.Format()
				if st.Identity(o) && text != prev {
					t.Fatalf("%s: %s calls itself the identity under %s and rewrote the program", p.Name, st.Name, o.Fingerprint())
				}
				key := stageKey{i, core.PrefixKey(i, o)}
				if first, ok := after[key]; !ok {
					after[key] = text
				} else if first != text {
					t.Fatalf("%s: two Options with the %s prefix key of %s print different programs after it", p.Name, st.Name, o.Fingerprint())
				}
			}
		}
	}
}
