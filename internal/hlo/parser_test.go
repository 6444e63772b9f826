package hlo

import (
	"strings"
	"testing"

	"overlap/internal/tensor"
)

// roundTrip asserts Format(Parse(Format(c))) == Format(c): the text form
// is a faithful exchange format.
func roundTrip(t *testing.T, c *Computation) *Computation {
	t.Helper()
	text := c.Format()
	parsed, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse failed: %v\n%s", err, text)
	}
	if err := parsed.Verify(); err != nil {
		t.Fatalf("parsed computation invalid: %v\n%s", err, text)
	}
	again := parsed.Format()
	if again != text {
		t.Fatalf("round trip not stable.\n--- original ---\n%s\n--- reparsed ---\n%s", text, again)
	}
	return parsed
}

func TestParseRoundTripBasics(t *testing.T) {
	c := NewComputation("basics")
	a := c.Parameter(0, "a", []int{4, 6})
	b := c.Parameter(1, "b", []int{6, 5})
	k := c.Constant("k", tensor.Iota(4, 5))
	ein := c.Einsum("mk,kn->mn", a, b)
	ein.SplitK = 2
	sum := c.Add(ein, k)
	mx := c.Max(sum, k)
	cp := c.Copy(mx)
	rs := c.Reshape(cp, 5, 4)
	tr := c.Transpose(rs, 1, 0)
	cat := c.Concat(1, tr, tr)
	pd := c.Pad(cat, []int{1, 0}, []int{0, 2}, -1.5)
	sl := c.Slice(pd, []int{0, 0}, []int{4, 6})
	z := c.Zeros("z", []int{4, 6})
	c.Tuple(sl, z)
	parsed := roundTrip(t, c)
	if !strings.Contains(c.Format(), `spec="mk,kn->mn" splitk=2`) {
		t.Fatalf("stamped factor not printed:\n%s", c.Format())
	}
	if got := parsed.Find(ein.Name).SplitK; got != 2 {
		t.Fatalf("parsed einsum has splitk %d, want 2", got)
	}
	if got := c.Clone().Find(ein.Name).SplitK; got != 2 {
		t.Fatalf("cloned einsum has splitk %d, want 2", got)
	}
}

func TestParseRoundTripDynamicOps(t *testing.T) {
	c := NewComputation("dyn")
	a := c.Parameter(0, "a", []int{8, 8})
	ds := c.DynamicSlice(a,
		[]DynOffset{{PIDFactor: 1, Div: 2, IterFactor: 3, Add: 1, Mod: 4, Scale: 2}, Static(0)},
		[]int{2, 8})
	base := c.Zeros("base", []int{8, 8})
	c.DynamicUpdateSlice(base, ds, []DynOffset{{PIDFactor: 1, Div: 1, Add: 0, Mod: 4, Scale: 2}, Static(0)})
	parsed := roundTrip(t, c)
	// Offsets must evaluate identically after the round trip.
	var orig, re *Instruction
	for _, in := range c.Instructions() {
		if in.Op == OpDynamicSlice {
			orig = in
		}
	}
	for _, in := range parsed.Instructions() {
		if in.Op == OpDynamicSlice {
			re = in
		}
	}
	for pid := 0; pid < 8; pid++ {
		for iter := 0; iter < 4; iter++ {
			if orig.Offsets[0].EvalIter(pid, iter) != re.Offsets[0].EvalIter(pid, iter) {
				t.Fatalf("offset eval diverges at pid=%d iter=%d", pid, iter)
			}
		}
	}
}

func TestParseRoundTripCollectives(t *testing.T) {
	c := NewComputation("colls")
	a := c.Parameter(0, "a", []int{4, 8})
	groups := [][]int{{0, 1}, {2, 3}}
	ag := c.AllGather(a, 0, groups)
	rsIn := c.Einsum("mk,kn->mn", ag, c.Parameter(1, "b", []int{8, 8}))
	rs := c.ReduceScatter(rsIn, 0, groups)
	ar := c.AllReduce(rs, groups)
	a2a := c.AllToAll(ar, 0, 0, groups)
	pairs := []SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}}
	cp := c.CollectivePermute(a2a, pairs)
	start := c.CollectivePermuteStart(cp, pairs)
	c.CollectivePermuteDone(start)
	roundTrip(t, c)
}

func TestParseRoundTripFusionAndLoop(t *testing.T) {
	body := NewComputation("body")
	p0 := body.Parameter(0, "p0", []int{4})
	p1 := body.Parameter(1, "p1", []int{4})
	nxt := body.CollectivePermute(body.Copy(p0), []SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}})
	acc := body.Add(p1, p0)
	body.Tuple(nxt, acc)

	fbody := NewComputation("fbody")
	f0 := fbody.Parameter(0, "f0", []int{4})
	fbody.Add(f0, f0)

	c := NewComputation("outer")
	x := c.Parameter(0, "x", []int{4})
	z := c.Zeros("z", []int{4})
	lp := c.Loop(body, 2, 1, x, z)
	c.Fusion("fuse", fbody, lp)
	roundTrip(t, c)
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                     // empty
		"nope",                                 // no header
		"c {\n  %a = f32[2] parameter()\n",     // unclosed
		"c {\n  %a = f32[2] warp(), x=1\n}",    // unknown opcode
		"c {\n  %a = f32[2] copy(%missing)\n}", // undefined operand
		"c {\n  garbage\n}",                    // unparseable line
	}
	for i, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("case %d parsed successfully: %q", i, text)
		}
	}

	// Plan files are outside input: a split-K factor the kernel engine
	// would clamp, or one on an opcode that cannot carry it, is an error.
	einsum := "c {\n  %a = f32[2 2] parameter(), index=0\n  %e = f32[2 2] einsum(%a, %a), spec=\"ab,bc->ac\""
	for _, text := range []string{
		einsum + " splitk=65\n}",
		einsum + " splitk=-1\n}",
		einsum + " splitk=x\n}",
		einsum + " splitk=\n}",
		einsum + " splitk=2 extra\n}",
		"c {\n  %a = f32[2 2] parameter(), index=0 splitk=2\n}",
		"c {\n  %a = f32[2 2] parameter(), index=0\n  %b = f32[2 2] copy(%a), splitk=2\n}",
	} {
		if _, err := Parse(text); err == nil || !strings.Contains(err.Error(), "splitk") {
			t.Errorf("bad split-K attribute: got %v for %q", err, text)
		}
	}
	c := NewComputation("verify")
	a := c.Parameter(0, "a", []int{2, 2})
	c.Einsum("ab,bc->ac", a, a).SplitK = 65
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "splitk") {
		t.Errorf("Verify accepted splitk=65: %v", err)
	}
}

// TestParseMalformedIsAnError: program text comes from plan files and
// request bodies, so an instruction the builder methods panic on — they
// serve compiler passes, where a bad shape is a bug — must come back from
// Parse as an error naming its line, bodies included.
func TestParseMalformedIsAnError(t *testing.T) {
	for _, tc := range []struct{ name, text, want string }{
		{"operandless collective", "m {\n  %p = f32[] parameter()\n  %g = f32[] all-gather()\n}", "hlo: line 3: "},
		{"missing einsum label", "m {\n  %a = f32[2 2] parameter(), index=0\n  %e = f32[2 2] einsum(%a, %a), spec=\"ab,bc->ad\"\n}", "hlo: line 3: "},
		{"one-operand add", "// dumped by hand\nm {\n  %a = f32[2] parameter(), index=0\n  %s = f32[2] add(%a)\n}", "hlo: line 4: "},
		{"inside a body", "m {\n  %a = f32[2] parameter(), index=0\n  %f = f32[2] fusion(%a)\n    | b {\n    |   %p = f32[2] parameter(), index=0\n    |   %s = f32[2] add(%p)\n    | }\n}", "hlo: line 6: "},
		{"empty fusion body", "m {\n  %f = f32[2] fusion()\n    | b {\n    | }\n}", "hlo: line 2: "},
		{"constant sized by its shape, not its values", "m {\n  %k = f32[99999 99999] constant(), value=[1]\n}", "has 1 values"},
	} {
		c, err := Parse(tc.text)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Parse returned (%v, %v), want an error containing %q", tc.name, c, err, tc.want)
		}
	}
}

// FuzzParse: whatever the text, Parse returns a computation or an error;
// what it returns can be checked against a ring — verified or not —
// and, once verified, printed. The seeds under testdata/fuzz are core's
// five goldens, the plan fixture's program, the malformed texts above
// and the out-of-ring programs that used to crash the simulator; plain
// go test replays them.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		c, err := Parse(text)
		if err != nil {
			return
		}
		_ = c.VerifyRing(4)
		if c.Verify() == nil {
			_ = c.Format()
		}
	})
}

func TestParseRejectsTrailing(t *testing.T) {
	c := NewComputation("one")
	c.Parameter(0, "a", []int{2})
	text := c.Format() + "extra {\n}\n"
	if _, err := Parse(text); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing content accepted: %v", err)
	}
}

func TestParseConstantValues(t *testing.T) {
	c := NewComputation("konst")
	c.Constant("k", tensor.FromValues([]int{2, 2}, []float64{1.5, -2, 0, 42}))
	parsed := roundTrip(t, c)
	k := parsed.Find("k")
	if k == nil || k.Literal == nil {
		t.Fatal("constant literal lost")
	}
	want := []float64{1.5, -2, 0, 42}
	for i, v := range k.Literal.Data() {
		if v != want[i] {
			t.Fatalf("literal[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestParseSkipsLeadingComments(t *testing.T) {
	c := NewComputation("comments")
	c.Parameter(0, "a", []int{2})
	text := "// a report line\n// another\n\n" + c.Format()
	parsed, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumInstructions() != 1 {
		t.Fatalf("parsed %d instructions", parsed.NumInstructions())
	}
}
