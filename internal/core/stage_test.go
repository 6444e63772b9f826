package core_test

import (
	"crypto/sha256"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
)

// TestEveryKnobHasAStage is the guard that keeps a knob from being
// forgotten: by reflection over core.Knobs, every field is claimed by
// exactly one stage's declared key (the table entry, before On narrows
// it to a program) and moves Fingerprint. A knob no stage claims would
// make two candidates of a search share a memoised program they should
// not; a knob copied into the reads of a stage that does not read it
// would split that stage's nodes for nothing and give its On a wrong key
// to narrow. Scheduler is the one knob two stages read, async and order:
// see TestSchedulersShareTheAsyncStage.
func TestEveryKnobHasAStage(t *testing.T) {
	typ := reflect.TypeOf(core.Knobs{})
	for f := 0; f < typ.NumField(); f++ {
		field := typ.Field(f)
		var o core.Options
		switch v := reflect.ValueOf(&o.Knobs).Elem().Field(f); v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(2) // also a valid SchedulerKind and split-K factor
		default:
			t.Fatalf("Knobs.%s has kind %s: teach this test to set it", field.Name, v.Kind())
		}

		var claimedBy []string
		for _, st := range core.Stages() {
			if reflect.ValueOf(st.Key(o)).Field(f).Interface() == reflect.ValueOf(o.Knobs).Field(f).Interface() {
				claimedBy = append(claimedBy, st.Name)
			}
		}
		claimants := 1
		if field.Name == "Scheduler" {
			claimants = 2 // async reads whether it is SchedulerNone, order which one it is
		}
		if len(claimedBy) != claimants {
			t.Errorf("Knobs.%s is claimed by stages %v, want %d: copy it in the reads of the stage whose body reads it, and only there", field.Name, claimedBy, claimants)
		}
		if o.Fingerprint() == (core.Knobs{}).Fingerprint() {
			t.Errorf("Knobs.%s does not appear in Fingerprint()", field.Name)
		}
	}
}

// TestSchedulersShareTheAsyncStage: Scheduler is the one knob two
// stages read. The async stage reads only whether it is SchedulerNone,
// so both overlap schedulers must share its key — a search makes a
// program asynchronous once and orders it per scheduler — and part at
// the order stage.
func TestSchedulersShareTheAsyncStage(t *testing.T) {
	stages := core.Stages()
	key := func(stage int, s core.SchedulerKind) core.Knobs {
		return stages[stage].Key(core.Options{Knobs: core.Knobs{Scheduler: s}})
	}
	if key(core.StageAsync, core.SchedulerBottomUp) != key(core.StageAsync, core.SchedulerTopDown) {
		t.Error("the overlap schedulers have different async keys: their async program would be built twice")
	}
	if key(core.StageAsync, core.SchedulerBottomUp) == key(core.StageAsync, core.SchedulerNone) {
		t.Error("SchedulerNone shares the overlap schedulers' async key")
	}
	if key(core.StageOrder, core.SchedulerBottomUp) == key(core.StageOrder, core.SchedulerTopDown) {
		t.Error("the overlap schedulers share an order key")
	}
	for _, s := range []core.SchedulerKind{core.SchedulerBottomUp, core.SchedulerTopDown, core.SchedulerNone} {
		o := core.Options{Knobs: core.Knobs{Scheduler: s}}
		if none := s == core.SchedulerNone; stages[core.StageAsync].Identity(o) != none || stages[core.StageOrder].Identity(o) != none {
			t.Errorf("%v: async and order must be the identity exactly under SchedulerNone", s)
		}
	}
}

// state digests everything a stage leaves in c for the next stage or a
// Clone to read: the text and what it does not print — instruction IDs,
// fusion groups and IDBound, bodies included.
func state(c *hlo.Computation) [sha256.Size]byte {
	buf := c.AppendFormat(nil)
	var unprinted func(c *hlo.Computation)
	unprinted = func(c *hlo.Computation) {
		buf = strconv.AppendInt(append(buf, '|'), int64(c.IDBound()), 10)
		for i := 0; i < c.NumInstructions(); i++ {
			in := c.At(i)
			buf = strconv.AppendInt(append(buf, ' '), int64(in.ID), 10)
			buf = strconv.AppendInt(append(buf, ':'), int64(in.Group), 10)
			if in.Body != nil {
				unprinted(in.Body)
			}
		}
	}
	unprinted(c)
	return sha256.Sum256(buf)
}

// TestStagesOverCorpus runs the pipeline one stage at a time for every
// enumerated Options on every corpus program, without any memo, and
// checks what a search that memoises on the stage table relies on:
//
//   - every stage leaves verifiable IR (Apply itself verifies only at
//     the end, Decompose per site) that still fits the program's ring
//     (VerifyRing: the corpus passes it before any stage, too);
//   - on one input, two Options with equal keys for the stage as it acts
//     on that input (Stage.On) leave the same state: text, instruction
//     IDs, fusion groups and IDBound;
//   - a stage that calls itself the identity on its input — statically
//     or by On — changes none of that state.
//
// This is what makes a program-aware rule that lies fail here rather
// than alias two candidates of a search.
func TestStagesOverCorpus(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	// No corpus input lets OverlapFriendlyFusion act (see
	// TestOverlapFriendlyFusionIsUnreachable), so Fig 11's shape joins
	// it here: without one, a fuse key that dropped the knob on every
	// program would pass.
	progs = append(progs, corpus.Program{Name: "fig11", Devices: 2, Comp: fig11()})
	spec := machine.TPUv4()
	type stageKey struct {
		stage int
		in    [sha256.Size]byte
		knobs core.Knobs
	}
	for _, p := range progs {
		if (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		if err := p.Comp.VerifyRing(p.Devices); err != nil {
			t.Fatalf("%s does not fit its %d-device ring: %v", p.Name, p.Devices, err)
		}
		after := map[stageKey][sha256.Size]byte{}
		for _, o := range core.EnumerateOptions(spec, p.Devices, p.Comp) {
			c := p.Comp.Clone()
			in := state(c)
			var report core.Report
			for i, st := range core.Stages() {
				on := st.On(c)
				key := stageKey{i, in, on.Key(o)}
				identity := on.Identity(o)
				if err := st.Run(c, o, &report); err != nil {
					t.Fatalf("%s: %s under %s: %v", p.Name, st.Name, o.Fingerprint(), err)
				}
				if err := c.Verify(); err != nil {
					t.Fatalf("%s: %s under %s left unverifiable IR: %v", p.Name, st.Name, o.Fingerprint(), err)
				}
				if err := c.VerifyRing(p.Devices); err != nil {
					t.Fatalf("%s: %s under %s left a program its %d-device ring cannot run: %v", p.Name, st.Name, o.Fingerprint(), p.Devices, err)
				}
				out := state(c)
				if identity && out != in {
					t.Fatalf("%s: %s calls itself the identity under %s and changed the program", p.Name, st.Name, o.Fingerprint())
				}
				if first, ok := after[key]; !ok {
					after[key] = out
				} else if first != out {
					t.Fatalf("%s: two Options with the %s key of %s leave one input in different states", p.Name, st.Name, o.Fingerprint())
				}
				in = out
			}
		}
	}
}

// fig11 is Fig 11's pattern: an Add of two einsums, one of which
// depends on an asynchronous CollectivePermuteDone.
func fig11() *hlo.Computation {
	c := hlo.NewComputation("fig11")
	a := c.Parameter(0, "a", []int{8, 8})
	w := c.Parameter(1, "w", []int{8, 8})
	done := c.CollectivePermuteDone(c.CollectivePermuteStart(a, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}}))
	c.Add(c.Einsum("mk,kn->mn", a, w), c.Einsum("mk,kn->mn", done, w))
	return c
}

// TestOverlapFriendlyFusionIsUnreachable records a finding, not a
// feature: from an untransformed input the §5.4.3 operand choice
// (Fig 11b) never acts. It prefers the einsum that depends on a
// CollectivePermuteDone, and only the async stage, which runs after
// fusion, makes one. So on every corpus program but the goldens (already
// rewritten: they carry async pairs), for every enumerated Options that
// fuses, the fuse stage prints the same text with OverlapFriendlyFusion
// on and off. A change that makes the heuristic reachable turns this
// test around.
func TestOverlapFriendlyFusionIsUnreachable(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	stages := core.Stages()
	for _, p := range progs {
		if strings.HasPrefix(p.Name, "golden/") || (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		seen := map[[core.StageAsync]core.Knobs]bool{}
		for _, o := range core.EnumerateOptions(machine.TPUv4(), p.Devices, p.Comp) {
			var keys [core.StageAsync]core.Knobs
			for i := range keys {
				keys[i] = stages[i].Key(o)
			}
			if !o.FuseAddIntoEinsum || seen[keys] {
				continue
			}
			seen[keys] = true
			c := p.Comp.Clone()
			for _, st := range stages[:core.StageFuse] {
				if err := st.Run(c, o, &core.Report{}); err != nil {
					t.Fatalf("%s: %s under %s: %v", p.Name, st.Name, o.Fingerprint(), err)
				}
			}
			var text [2]string
			for i, friendly := range []bool{false, true} {
				fused, fo := c.Clone(), o
				fo.OverlapFriendlyFusion = friendly
				if err := stages[core.StageFuse].Run(fused, fo, &core.Report{}); err != nil {
					t.Fatalf("%s: fuse under %s: %v", p.Name, fo.Fingerprint(), err)
				}
				text[i] = fused.Format()
			}
			if text[0] != text[1] {
				t.Errorf("%s: OverlapFriendlyFusion changed the fused program under %s: the Fig 11 heuristic is reachable now — update Options.OverlapFriendlyFusion, README and this test", p.Name, o.Fingerprint())
			}
		}
	}
}
