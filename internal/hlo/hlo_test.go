package hlo

import (
	"math"
	"strings"
	"testing"

	"overlap/internal/tensor"
)

func ringGroups(n int) [][]int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return [][]int{g}
}

// buildMLPLayer constructs the Fig-2-style AllGather → Einsum pattern:
// activation shard [B/N, F], weight shard [F/N, H], gathered to [F, H].
func buildMLPLayer(t *testing.T) (*Computation, *Instruction, *Instruction) {
	t.Helper()
	c := NewComputation("layer")
	act := c.Parameter(0, "act", []int{4, 8})
	w := c.Parameter(1, "w", []int{2, 16})
	gathered := c.AllGather(w, 0, ringGroups(4))
	out := c.Einsum("bf,fh->bh", act, gathered)
	return c, gathered, out
}

func TestBuilderShapeInference(t *testing.T) {
	c, gathered, out := buildMLPLayer(t)
	if gathered.Shape[0] != 8 || gathered.Shape[1] != 16 {
		t.Fatalf("all-gather shape = %v, want [8 16]", gathered.Shape)
	}
	if out.Shape[0] != 4 || out.Shape[1] != 16 {
		t.Fatalf("einsum shape = %v, want [4 16]", out.Shape)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsOnBadEinsum(t *testing.T) {
	c := NewComputation("bad")
	a := c.Parameter(0, "a", []int{2, 3})
	b := c.Parameter(1, "b", []int{4, 5}) // contraction size mismatch
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched einsum did not panic")
		}
	}()
	c.Einsum("ik,kj->ij", a, b)
}

func TestUsersTracking(t *testing.T) {
	c := NewComputation("users")
	a := c.Parameter(0, "a", []int{2, 2})
	b := c.Parameter(1, "b", []int{2, 2})
	sum := c.Add(a, b)
	twice := c.Add(sum, sum) // same operand used twice
	if a.NumUsers() != 1 || a.userIndex(sum) < 0 {
		t.Fatalf("a users = %v", a.Users())
	}
	if sum.NumUsers() != 1 {
		t.Fatalf("sum should have exactly one distinct user, got %d", sum.NumUsers())
	}
	// Replace sum with a fresh value in twice; both slots must move.
	repl := c.Copy(a)
	twice.ReplaceOperand(sum, repl)
	if sum.NumUsers() != 0 {
		t.Fatalf("sum still has users after replacement: %v", sum.Users())
	}
	if repl.NumUsers() != 1 || repl.userIndex(twice) < 0 {
		t.Fatal("replacement user edge missing")
	}
}

func TestReplaceAllUsesWithAndDCE(t *testing.T) {
	c := NewComputation("dce")
	a := c.Parameter(0, "a", []int{2, 2})
	olds := c.Add(a, a)
	dead := c.Copy(olds)
	_ = dead
	news := c.Copy(a)
	root := c.Add(news, news)
	c.ReplaceAllUsesWith(olds, news)
	_ = root
	removed := c.RemoveDeadCode()
	if removed == 0 {
		t.Fatal("expected dead instructions to be removed")
	}
	for _, in := range c.Instructions() {
		if in == olds || in == dead {
			t.Fatalf("dead instruction %s survived DCE", in.Name)
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSetScheduleValidation(t *testing.T) {
	c := NewComputation("sched")
	a := c.Parameter(0, "a", []int{2})
	b := c.Copy(a)
	d := c.Copy(b)
	// A reversed schedule must be rejected.
	if err := c.SetSchedule([]*Instruction{d, b, a}); err == nil {
		t.Fatal("invalid schedule accepted")
	}
	// Equivalent valid schedule accepted.
	if err := c.SetSchedule([]*Instruction{a, b, d}); err != nil {
		t.Fatal(err)
	}
	// Missing instruction rejected.
	if err := c.SetSchedule([]*Instruction{a, b}); err == nil {
		t.Fatal("short schedule accepted")
	}
	// Duplicate instruction rejected.
	if err := c.SetSchedule([]*Instruction{a, b, b}); err == nil {
		t.Fatal("duplicate schedule accepted")
	}
	// An instruction of another computation rejected, even one whose ID
	// an instruction here has too.
	other := NewComputation("other")
	x := other.Parameter(0, "x", []int{2})
	if err := c.SetSchedule([]*Instruction{x, b, d}); err == nil || !strings.Contains(err.Error(), "not in the computation") {
		t.Fatalf("foreign instruction in the schedule: %v", err)
	}
	// An operand outside the computation is its own error: it has no
	// position here, which used to read as position 0 — "before every
	// user but the first".
	d.ReplaceOperand(b, x)
	if err := c.SetSchedule([]*Instruction{a, b, d}); err == nil || !strings.Contains(err.Error(), "operand x is not in the computation") {
		t.Fatalf("operand outside the computation: %v", err)
	}
	d.ReplaceOperand(x, b)

	// An order taken as IDs applies to a Clone, which keeps them.
	e := c.Copy(a)
	if err := c.SetSchedule([]*Instruction{a, e, b, d}); err != nil {
		t.Fatal(err)
	}
	idsOf := func(c *Computation) []int {
		ids := make([]int, c.NumInstructions())
		for i := range ids {
			ids[i] = c.At(i).ID
		}
		return ids
	}
	ids := idsOf(c)
	cp := c.Clone()
	if err := c.SetSchedule([]*Instruction{a, b, d, e}); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetScheduleIDs(idsOf(c)); err != nil {
		t.Fatal(err)
	}
	if cp.Format() != c.Format() {
		t.Fatalf("a clone in the source's schedule prints\n%s\nthe source\n%s", cp.Format(), c.Format())
	}
	if err := cp.SetScheduleIDs(ids); err != nil || cp.At(1).Name != e.Name {
		t.Fatalf("re-applying the earlier order: %v, second is %s", err, cp.At(1).Name)
	}
	if err := cp.SetScheduleIDs([]int{0, 1, 2, 99}); err == nil {
		t.Fatal("unknown instruction id accepted")
	}
}

func TestScheduleStableTopological(t *testing.T) {
	c := NewComputation("topo")
	a := c.Parameter(0, "a", []int{2})
	b := c.Copy(a)
	d := c.Copy(b)
	// Force an out-of-order list, then restore.
	c.instrs = []*Instruction{d, a, b}
	c.ScheduleStableTopological()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	got := c.Instructions()
	if got[0] != a || got[1] != b || got[2] != d {
		t.Fatalf("stable topo order = %v", got)
	}
}

func TestStableTopoPreservesIndependentOrder(t *testing.T) {
	c := NewComputation("stable")
	a := c.Parameter(0, "a", []int{2})
	x := c.Copy(a)
	y := c.Copy(a)
	z := c.Copy(a)
	c.ScheduleStableTopological()
	got := c.Instructions()
	if got[1] != x || got[2] != y || got[3] != z {
		t.Fatal("independent instructions reordered by stable topo sort")
	}
}

func TestVerifyCatchesBadUserEdge(t *testing.T) {
	c := NewComputation("broken")
	a := c.Parameter(0, "a", []int{2})
	b := c.Copy(a)
	// Corrupt the user list directly: an edge missing, ...
	a.removeUser(b)
	if err := c.Verify(); err == nil {
		t.Fatal("verifier missed a corrupted user edge")
	}
	// ... one left over, ...
	a.addUser(b)
	b.addUser(a)
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "does not read it") {
		t.Fatalf("verifier missed a user that does not read: %v", err)
	}
	b.removeUser(a)
	// ... one counting a slot too many.
	a.addUser(b)
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "slots") {
		t.Fatalf("verifier missed a miscounted user edge: %v", err)
	}
	a.removeUser(b)
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEinsumFactsAreBuiltOnceAndChecked: the builder and the parser
// give an einsum its parsed spec and stats, Clone shares them, a query
// on an instruction no Computation built derives them on the fly, and
// Verify notices when the shapes they were derived from have moved.
func TestEinsumFactsAreBuiltOnceAndChecked(t *testing.T) {
	c := NewComputation("facts")
	a := c.Parameter(0, "a", []int{8, 32})
	b := c.Parameter(1, "b", []int{32, 16})
	ein := c.Einsum("ik,kj->ij", a, b)
	if ein.einsum == nil {
		t.Fatal("the builder left an einsum without its facts")
	}
	if flops, minDim := ein.EinsumStats(); flops != 2*8*32*16 || minDim != 8 {
		t.Fatalf("stats = %d flops, tiling dim %d", flops, minDim)
	}
	if cp := c.Clone().Find(ein.Name); cp.einsum != ein.einsum {
		t.Fatal("Clone re-derived or dropped the einsum facts")
	}
	parsed, err := Parse(c.Format())
	if err != nil {
		t.Fatal(err)
	}
	if pe := parsed.Find(ein.Name); pe.einsum == nil || pe.einsum.flops != ein.einsum.flops {
		t.Fatal("the parser left an einsum without its facts")
	}
	loose := &Instruction{Op: OpEinsum, Name: "loose", EinsumSpec: "ik,kj->ij",
		Operands: []*Instruction{{Shape: []int{2, 3}}, {Shape: []int{3, 5}}}}
	if flops, minDim := loose.EinsumStats(); flops != 2*2*3*5 || minDim != 2 || loose.einsum != nil {
		t.Fatalf("unbuilt einsum: %d flops, tiling dim %d, kept %v", flops, minDim, loose.einsum)
	}
	if spec, err := ein.ParsedEinsum(); err != nil || spec.Output != "ij" {
		t.Fatalf("ParsedEinsum = %v, %v", spec, err)
	}

	// Same output shape, different contraction: only the facts notice.
	a.Shape[1], b.Shape[0] = 64, 64
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "einsum facts") {
		t.Fatalf("verifier missed stale einsum facts: %v", err)
	}
	a.Shape[1], b.Shape[0] = 32, 32
	// Replacing an operand by one of another shape drops them instead.
	wide := c.Parameter(2, "wide", []int{8, 64})
	ein.ReplaceOperand(a, wide)
	if ein.einsum != nil {
		t.Fatal("ReplaceOperand kept facts derived from the old operand's shape")
	}
}

func TestVerifyCollectiveGroups(t *testing.T) {
	c := NewComputation("groups")
	a := c.Parameter(0, "a", []int{2, 4})
	// The builder refuses overlapping groups, so they are edited in.
	bad := c.AllGather(a, 0, [][]int{{0, 1}, {2, 3}})
	EditAttrs(bad, func(a *Attrs) { a.Groups[1][0] = 1 }) // device 1 twice
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "two groups") {
		t.Fatalf("verifier missed overlapping groups: %v", err)
	}
}

func TestDynOffsetEval(t *testing.T) {
	// ((pid + 1) mod 4) * 8
	o := DynOffset{PIDFactor: 1, Add: 1, Mod: 4, Scale: 8}
	wants := []int{8, 16, 24, 0}
	for pid, want := range wants {
		if got := o.EvalIter(pid, 0); got != want {
			t.Fatalf("Eval(%d) = %d, want %d", pid, got, want)
		}
	}
	if got := Static(5).EvalIter(3, 0); got != 5 {
		t.Fatalf("Static(5).Eval = %d", got)
	}
	// Negative intermediate values must wrap into [0, Mod).
	neg := DynOffset{PIDFactor: -1, Add: 0, Mod: 4, Scale: 1}
	if got := neg.EvalIter(1, 0); got != 3 {
		t.Fatalf("negative wrap Eval = %d, want 3", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	c, _, _ := buildMLPLayer(t)
	clone := c.Clone()
	if err := clone.Verify(); err != nil {
		t.Fatal(err)
	}
	if clone.NumInstructions() != c.NumInstructions() {
		t.Fatal("clone instruction count differs")
	}
	// Mutating the clone must not affect the original.
	cloneRoot := clone.Root()
	clone.ReplaceAllUsesWith(cloneRoot, clone.Instructions()[0])
	if err := c.Verify(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
	for i, in := range c.Instructions() {
		if clone.Instructions()[i] == in {
			t.Fatal("clone shares instruction objects with original")
		}
	}
}

func TestFusionShapeInference(t *testing.T) {
	body := NewComputation("fused_add")
	p0 := body.Parameter(0, "p0", []int{2, 2})
	p1 := body.Parameter(1, "p1", []int{2, 2})
	body.Add(p0, p1)

	c := NewComputation("main")
	a := c.Parameter(0, "a", []int{2, 2})
	b := c.Parameter(1, "b", []int{2, 2})
	f := c.Fusion("fadd", body, a, b)
	if f.Shape[0] != 2 || f.Shape[1] != 2 {
		t.Fatalf("fusion shape = %v", f.Shape)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFormatContainsScheduleOrder(t *testing.T) {
	c, _, _ := buildMLPLayer(t)
	text := c.Format()
	ag := strings.Index(text, "all-gather")
	ein := strings.Index(text, "einsum")
	if ag < 0 || ein < 0 || ag > ein {
		t.Fatalf("Format order wrong:\n%s", text)
	}
	if !strings.Contains(text, `spec="bf,fh->bh"`) {
		t.Fatalf("Format missing einsum spec:\n%s", text)
	}
}

func TestConstantAndZeros(t *testing.T) {
	c := NewComputation("const")
	z := c.Zeros("z", []int{2, 3})
	if z.Op != OpZero || z.NumElements() != 6 {
		t.Fatalf("Zeros = %s with %d elements", z.Op, z.NumElements())
	}
	if z.Literal != nil {
		t.Fatal("Zeros must not materialize a literal")
	}
	lit := c.Constant("k", tensor.Iota(2, 2))
	if lit.Shape[0] != 2 || lit.Shape[1] != 2 {
		t.Fatalf("constant shape = %v", lit.Shape)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestByteSizeAndNumElements(t *testing.T) {
	c := NewComputation("bytes")
	a := c.Parameter(0, "a", []int{8, 128})
	if a.NumElements() != 1024 {
		t.Fatalf("NumElements = %d", a.NumElements())
	}
	if a.ByteSize() != 4096 {
		t.Fatalf("ByteSize = %d", a.ByteSize())
	}
	// Parsed text may name any shape: the byte size saturates, where the
	// element count of the first wraps int64 to zero.
	for shape, want := range map[[2]int]int64{
		{1 << 62, 4}:       math.MaxInt64,
		{1 << 61, 1}:       math.MaxInt64, // 2^63 bytes, one past
		{1 << 30, 1 << 30}: 1 << 62,
		{1 << 40, 0}:       0,
	} {
		if got := c.Parameter(1, "huge", shape[:]).ByteSize(); got != want {
			t.Errorf("ByteSize of %v = %d, want %d", shape, got, want)
		}
	}
}

func TestCollectivePermuteDoneRequiresStart(t *testing.T) {
	c := NewComputation("async")
	a := c.Parameter(0, "a", []int{4})
	start := c.CollectivePermuteStart(a, []SourceTargetPair{{0, 1}, {1, 0}})
	done := c.CollectivePermuteDone(start)
	if len(done.Pairs) != 2 {
		t.Fatal("done must inherit the start's pairs")
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	// A done whose operand is not a start must fail verification.
	bad := NewComputation("bad")
	p := bad.Parameter(0, "p", []int{4})
	bad.add(&Instruction{Op: OpCollectivePermuteDone, Operands: []*Instruction{p}, Shape: []int{4}, Attrs: &noAttrs})
	if err := bad.Verify(); err == nil {
		t.Fatal("done without start passed verification")
	}
}

// TestGenerationCountsMutations pins the generation's contract: every
// method that adds, rewires, removes or reorders instructions moves it,
// and reading the computation — its text, its verification, its users,
// its parameters — does not.
func TestGenerationCountsMutations(t *testing.T) {
	c := NewComputation("gen")
	a := c.Parameter(0, "a", []int{2, 2})
	x := c.Copy(a)
	y := c.Copy(a)
	c.Add(x, y)
	mutations := []struct {
		name string
		f    func()
	}{
		{"add", func() { c.Copy(a) }},
		{"ReplaceAllUsesWith", func() { c.ReplaceAllUsesWith(y, x) }},
		{"RemoveDeadCode", func() { c.RemoveDeadCode() }},
		{"SetSchedule", func() {
			if err := c.SetSchedule(c.Instructions()); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetScheduleIDs", func() {
			var ids []int
			for _, in := range c.Instructions() {
				ids = append(ids, in.ID)
			}
			if err := c.SetScheduleIDs(ids); err != nil {
				t.Fatal(err)
			}
		}},
		{"ScheduleStableTopological", c.ScheduleStableTopological},
	}
	for _, m := range mutations {
		before := c.Generation()
		m.f()
		if c.Generation() == before {
			t.Errorf("%s left the generation at %d", m.name, before)
		}
	}
	before := c.Generation()
	_ = c.Format()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	_ = c.Parameters()
	_ = x.Users()
	if err := c.VerifyArgs(1, [][]*tensor.Tensor{{tensor.New(2, 2)}}); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != before {
		t.Errorf("reading the computation moved its generation %d -> %d", before, c.Generation())
	}
}

// TestVerifyArgsAllocatesNothing: a run checks its arguments on every
// call, so an accepted set costs no allocation.
func TestVerifyArgsAllocatesNothing(t *testing.T) {
	c := NewComputation("args")
	for i := 0; i < 6; i++ {
		c.Parameter(i, "", []int{4, 2})
	}
	arg := []*tensor.Tensor{tensor.New(4, 2)}
	args := [][]*tensor.Tensor{arg, arg, arg, arg, arg, arg}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.VerifyArgs(4, args); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("VerifyArgs allocates %v times per call", allocs)
	}
}
