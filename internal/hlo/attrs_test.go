package hlo_test

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
)

// TestInstructionsShareAttrs pins the sharing the narrow instruction
// exists for and the immutability it rests on. A clone's instructions,
// a fusion body's copies of the instructions it absorbed and
// MakeAsync's start and done all hold their source's *Attrs; and the
// zero Attrs every attribute-less instruction points at is still zero
// after every corpus program is built, rewritten stage by stage and by
// core.Apply, cloned, printed and parsed back.
func TestInstructionsShareAttrs(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(machine.TPUv4())
	fused := 0
	for _, p := range progs {
		n := p.Comp.Clone()
		checkCloneShares(t, p.Name, p.Comp, n)
		for _, st := range core.Stages() {
			before := map[string]*hlo.Attrs{}
			n.Walk(func(in *hlo.Instruction) {
				if _, dup := before[in.Name]; dup {
					before[in.Name] = nil // ambiguous: not checked
				} else {
					before[in.Name] = in.Attrs
				}
			})
			if err := st.Run(n, opts, &core.Report{}); err != nil {
				t.Fatalf("%s: %s: %v", p.Name, st.Name, err)
			}
			n.Walk(func(in *hlo.Instruction) {
				if in.Op != hlo.OpFusion {
					return
				}
				for _, m := range in.Body.Instructions() {
					src, ok := before[strings.TrimSuffix(m.Name, ".f")]
					if !strings.HasSuffix(m.Name, ".f") || !ok || src == nil {
						continue
					}
					if m.Attrs != src {
						t.Errorf("%s: %s: fusion body member %s copied its source's attributes instead of sharing them", p.Name, st.Name, m.Name)
					}
					if src != hlo.NoAttrs {
						fused++
					}
				}
			})
			checkCloneShares(t, p.Name+" after "+st.Name, n, n.Clone())
		}
		if _, err := core.Apply(p.Comp, opts); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkCloneShares(t, p.Name+" applied", p.Comp, p.Comp.Clone())
		for _, c := range []*hlo.Computation{n, p.Comp} {
			text := c.Format()
			parsed, err := hlo.Parse(text)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if parsed.Format() != text {
				t.Fatalf("%s: the text does not survive a round trip", p.Name)
			}
		}
		if !reflect.ValueOf(*hlo.NoAttrs).IsZero() {
			t.Fatalf("%s: the shared zero Attrs was written: %+v", p.Name, *hlo.NoAttrs)
		}
	}
	t.Logf("%d programs, %d fusion-body members with attributes checked", len(progs), fused)
	if fused == 0 {
		t.Error("no fusion body absorbed an instruction with attributes: the fusion check checked nothing")
	}

	c := hlo.NewComputation("async")
	permute := c.CollectivePermute(c.Parameter(0, "a", []int{2, 2}), []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}})
	c.Tuple(permute)
	shared := permute.Attrs
	if core.MakeAsync(c) != 1 {
		t.Fatal("MakeAsync converted no permute")
	}
	pairs := 0
	c.Walk(func(in *hlo.Instruction) {
		if in.Op == hlo.OpCollectivePermuteStart || in.Op == hlo.OpCollectivePermuteDone {
			pairs++
			if in.Attrs != shared {
				t.Errorf("MakeAsync's %s copied the permute's attributes instead of sharing them", in.Name)
			}
		}
	})
	if pairs != 2 {
		t.Fatalf("MakeAsync left %d start/done instructions, want 2", pairs)
	}
}

// TestInstructionIsNarrow: the attributes stay behind the pointer. An
// instruction is cloned once per stage-1 node and built once per
// builder call, so every inline field is paid thousands of times a
// compile. It is 168 bytes on a 64-bit host.
func TestInstructionIsNarrow(t *testing.T) {
	if size := unsafe.Sizeof(hlo.Instruction{}); size > 176 {
		t.Fatalf("hlo.Instruction is %d bytes, want at most 176: put opcode-specific fields in hlo.Attrs", size)
	}
}

// checkCloneShares wants every instruction of cl, fusion and loop bodies
// included, to hold the *Attrs of its counterpart in src.
func checkCloneShares(t *testing.T, label string, src, cl *hlo.Computation) {
	t.Helper()
	var want, got []*hlo.Instruction
	src.Walk(func(in *hlo.Instruction) { want = append(want, in) })
	cl.Walk(func(in *hlo.Instruction) { got = append(got, in) })
	if len(got) != len(want) {
		t.Fatalf("%s: the clone has %d instructions, the source %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] == want[i] || got[i].Attrs != want[i].Attrs {
			t.Fatalf("%s: clone of %s does not share its source's attributes", label, want[i].Name)
		}
	}
}
