package hlo

import (
	"strconv"
	"strings"
	"testing"

	"overlap/internal/tensor"
)

// ringProgram builds a program that uses every construct VerifyRing has
// a rule for, well-formed on an n-device ring: a group collective over
// all devices, a blocking permute, a start/done pair and a rolled loop
// whose body permutes — each around the ring by one.
type ringProgram struct {
	c, body              *Computation
	a, gather, permute   *Instruction
	start, done, loop    *Instruction
	carried, bodyPermute *Instruction
}

func newRingProgram(n int) *ringProgram {
	all := make([]int, n)
	shift := make([]SourceTargetPair, n)
	for d := range all {
		all[d] = d
		shift[d] = SourceTargetPair{Source: d, Target: (d + 1) % n}
	}
	p := &ringProgram{c: NewComputation("ring"), body: NewComputation("body")}
	p.a = p.c.Parameter(0, "a", []int{2, 2})
	p.gather = p.c.AllReduce(p.a, [][]int{all})
	p.permute = p.c.CollectivePermute(p.gather, shift)
	p.start = p.c.CollectivePermuteStart(p.permute, shift)
	p.done = p.c.CollectivePermuteDone(p.start)

	p.carried = p.body.Parameter(0, "carried", []int{2, 2})
	p.bodyPermute = p.body.CollectivePermute(p.carried, shift)
	p.body.Tuple(p.bodyPermute)
	p.loop = p.c.Loop(p.body, n, 0, p.done)
	return p
}

// TestVerifyRingRules breaks one rule at a time on a program that
// otherwise passes, at ring sizes 1, 2 and 4, and wants the rule's
// error — naming the instruction — not a pass and not a panic.
func TestVerifyRingRules(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(p *ringProgram, n int)
		want   string // with %n the ring size
	}{
		{"device out of range", func(p *ringProgram, n int) {
			EditAttrs(p.gather, func(a *Attrs) { a.Groups[0][n-1] = n })
		}, "all-reduce.1 group device %n out of range [0,%n)"},
		{"device in no group", func(p *ringProgram, n int) {
			EditAttrs(p.gather, func(a *Attrs) { a.Groups[0] = a.Groups[0][:n-1] })
		}, " does not participate in all-reduce.1"},
		{"endpoint out of range", func(p *ringProgram, n int) {
			EditAttrs(p.permute, func(a *Attrs) { a.Pairs[0].Target = n })
		}, "collective-permute.2 pair 0->%n out of range [0,%n)"},
		{"negative endpoint", func(p *ringProgram, n int) {
			EditAttrs(p.start, func(a *Attrs) { a.Pairs[0].Source = -1 })
		}, "collective-permute-start.3 pair -1->"},
		{"endpoint out of range in a loop body", func(p *ringProgram, n int) {
			EditAttrs(p.bodyPermute, func(a *Attrs) { a.Pairs[n-1].Source = n + 98 })
		}, "collective-permute.1 pair "},
		{"start with no done", func(p *ringProgram, n int) {
			p.c.CollectivePermuteStart(p.a, p.start.Pairs)
		}, " has 0 done users, want exactly 1"},
		{"start with two dones", func(p *ringProgram, n int) {
			p.c.CollectivePermuteDone(p.start)
		}, "collective-permute-start.3 has 2 done users, want exactly 1"},
		{"done inside a loop, start outside", func(p *ringProgram, n int) {
			p.c = NewComputation("outer")
			a := p.c.Parameter(0, "a", []int{2, 2})
			start := p.c.CollectivePermuteStart(a, p.start.Pairs)
			body := NewComputation("body")
			carried := body.Parameter(0, "carried", []int{2, 2})
			body.CollectivePermuteDone(start)
			body.Tuple(carried)
			p.c.Loop(body, 1, 0, a)
		}, "collective-permute-done.1 completes in a different sequence than collective-permute-start.1"},
		{"start inside a loop, done outside", func(p *ringProgram, n int) {
			p.c = NewComputation("outer")
			a := p.c.Parameter(0, "a", []int{2, 2})
			body := NewComputation("body")
			carried := body.Parameter(0, "carried", []int{2, 2})
			start := body.CollectivePermuteStart(carried, p.start.Pairs)
			body.Tuple(carried)
			p.c.Loop(body, 1, 0, a)
			p.c.CollectivePermuteDone(start)
		}, "collective-permute-done.2 completes in a different sequence than collective-permute-start.1"},
		{"start and done disagree on pairs", func(p *ringProgram, n int) {
			EditAttrs(p.done, func(a *Attrs) { a.Pairs[0].Target = (a.Pairs[0].Target + 1) % (n + 1) })
		}, "collective-permute-start.3 and collective-permute-done.4 disagree on permute pairs"},
		{"nested loop", func(p *ringProgram, n int) {
			inner := NewComputation("inner")
			inner.Tuple(inner.Parameter(0, "x", []int{2, 2}))
			p.body.Loop(inner, 1, 0, p.carried)
		}, "nested loop loop."},
		{"body parameter index out of range", func(p *ringProgram, n int) {
			p.carried.ParamIndex = 1
		}, "loop loop.5 body parameter carried index 1 out of range"},
		{"negative body parameter index", func(p *ringProgram, n int) {
			p.carried.ParamIndex = -1
		}, "loop loop.5 body parameter carried index -1 out of range"},
	} {
		for _, n := range []int{1, 2, 4} {
			p := newRingProgram(n)
			if err := p.c.Verify(); err != nil {
				t.Fatalf("n=%d: the unbroken program does not verify: %v", n, err)
			}
			if err := p.c.VerifyRing(n); err != nil {
				t.Fatalf("n=%d: the unbroken program fails the ring check: %v", n, err)
			}
			tc.mutate(p, n)
			want := strings.ReplaceAll(tc.want, "%n", strconv.Itoa(n))
			err := p.c.VerifyRing(n)
			if err == nil || !strings.HasPrefix(err.Error(), "hlo: ") || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, n=%d: VerifyRing = %v, want an hlo: error containing %q", tc.name, n, err, want)
			}
		}
	}
}

// TestVerifyRingIsAboutTheRing: the program that fits a 4-device ring
// fits no other, and no ring has fewer than one device.
func TestVerifyRingIsAboutTheRing(t *testing.T) {
	c := newRingProgram(4).c
	for n, want := range map[int]string{
		0: "hlo: need at least one device",
		2: "hlo: all-reduce.1 group device 2 out of range [0,2)",
		8: "hlo: device 4 does not participate in all-reduce.1",
		// A ring far larger than anything the text lists costs scratch
		// for what is listed, not for the ring.
		1 << 40: "hlo: device 4 does not participate in all-reduce.1",
	} {
		if err := c.VerifyRing(n); err == nil || err.Error() != want {
			t.Errorf("n=%d: VerifyRing = %v, want %q", n, err, want)
		}
	}
}

// TestParseProgramChecksAllThree: text becomes a program only through
// Parse, Verify and VerifyRing together.
func TestParseProgramChecksAllThree(t *testing.T) {
	good := newRingProgram(2).c.Format()
	if _, err := ParseProgram(good, 2); err != nil {
		t.Fatalf("a printed well-formed program is refused: %v", err)
	}
	for name, tc := range map[string]struct{ text, want string }{
		"parse":  {strings.Replace(good, "all-reduce(", "all-reduce(%nobody, ", 1), "undefined operand %nobody"},
		"verify": {strings.Replace(good, "groups=[[0 1]]", "groups=[[0 1] [1 0]]", 1), "lists device"},
		"ring":   {strings.Replace(good, "groups=[[0 1]]", "groups=[[0 99]]", 1), "hlo: all-reduce.1 group device 99 out of range [0,2)"},
	} {
		if tc.text == good {
			t.Fatalf("%s: the replacement matched nothing in\n%s", name, good)
		}
		if _, err := ParseProgram(tc.text, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseProgram = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestVerifyArgs pins the argument rules both executors apply: count,
// one value or one per device, none nil, the declared shape, and a
// parameter index an argument exists for.
func TestVerifyArgs(t *testing.T) {
	c := NewComputation("args")
	a := c.Parameter(0, "a", []int{2, 2})
	b := c.Parameter(1, "b", []int{3})
	c.Tuple(a, b)
	ok, vec := tensor.Iota(2, 2), tensor.Iota(3)
	for _, tc := range []struct {
		name string
		args [][]*tensor.Tensor
		want string
	}{
		{"replicated", [][]*tensor.Tensor{{ok}, {vec}}, ""},
		{"per device", [][]*tensor.Tensor{{ok, ok}, {vec}}, ""},
		{"missing", [][]*tensor.Tensor{{ok}}, "hlo: computation args has 2 parameters, got 1 arguments"},
		{"wrong fan-out", [][]*tensor.Tensor{{ok, ok, ok}, {vec}}, "hlo: parameter 0 has 3 values, want 1 or 2"},
		{"empty", [][]*tensor.Tensor{{ok}, {}}, "hlo: parameter 1 has 0 values, want 1 or 2"},
		{"nil", [][]*tensor.Tensor{{ok, nil}, {vec}}, "hlo: parameter 0 value 1 of 2 is nil"},
		{"mis-shaped", [][]*tensor.Tensor{{ok}, {ok}}, "hlo: parameter 1 value shape [2 2], declared [3]"},
	} {
		err := c.VerifyArgs(2, tc.args)
		if got := errText(err); got != tc.want {
			t.Errorf("%s: VerifyArgs = %q, want %q", tc.name, got, tc.want)
		}
	}
	b.ParamIndex = 5
	if err := c.VerifyArgs(2, [][]*tensor.Tensor{{ok}, {vec}}); err == nil || !strings.Contains(err.Error(), "parameter b index 5 out of range") {
		t.Errorf("a parameter index no argument exists for: VerifyArgs = %v", err)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
