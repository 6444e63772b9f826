package hlo_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/tensor"
)

// referenceFormat is the fmt-based printer the append printer replaced,
// kept verbatim as the reference the new one is pinned against: bodies
// are rendered whole, split into lines and re-printed behind their
// prefix, and every attribute goes through fmt's verbs.
func referenceFormat(c *hlo.Computation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s {\n", c.Name)
	for _, in := range c.Instructions() {
		b.WriteString("  ")
		b.WriteString(referenceInstruction(in))
		b.WriteByte('\n')
		if in.Op == hlo.OpFusion || in.Op == hlo.OpLoop {
			for _, line := range strings.Split(referenceFormat(in.Body), "\n") {
				if line == "" {
					continue
				}
				fmt.Fprintf(&b, "    | %s\n", line)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func referenceInstruction(in *hlo.Instruction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%s = f32%v %s(", in.Name, in.Shape, in.Op)
	for i, op := range in.Operands {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%%%s", op.Name)
	}
	b.WriteByte(')')
	for _, attr := range referenceAttributes(in) {
		fmt.Fprintf(&b, ", %s", attr)
	}
	return b.String()
}

func referenceAttributes(in *hlo.Instruction) []string {
	var attrs []string
	switch in.Op {
	case hlo.OpParameter:
		attrs = append(attrs, fmt.Sprintf("index=%d", in.ParamIndex))
	case hlo.OpConstant:
		attrs = append(attrs, fmt.Sprintf("value=%v", in.Literal.Data()))
	case hlo.OpEinsum:
		attr := fmt.Sprintf("spec=%q", in.EinsumSpec)
		if in.SplitK >= 2 {
			attr += fmt.Sprintf(" splitk=%d", in.SplitK)
		}
		attrs = append(attrs, attr)
	case hlo.OpConcat:
		attrs = append(attrs, fmt.Sprintf("axis=%d", in.Axis))
	case hlo.OpPad:
		attrs = append(attrs, fmt.Sprintf("low=%v high=%v value=%g", in.PadLow, in.PadHigh, in.PadValue))
	case hlo.OpSlice:
		attrs = append(attrs, fmt.Sprintf("bounds=[%v:%v]", in.Starts, in.Limits))
	case hlo.OpDynamicSlice:
		attrs = append(attrs, fmt.Sprintf("offsets=%s sizes=%v", referenceOffsets(in.Offsets), in.SliceSizes))
	case hlo.OpDynamicUpdateSlice:
		attrs = append(attrs, fmt.Sprintf("offsets=%s", referenceOffsets(in.Offsets)))
	case hlo.OpTranspose:
		attrs = append(attrs, fmt.Sprintf("perm=%v", in.Perm))
	case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllToAll:
		attrs = append(attrs, fmt.Sprintf("axis=%d groups=%v", in.CollectiveAxis, in.Groups))
	case hlo.OpAllReduce:
		attrs = append(attrs, fmt.Sprintf("groups=%v", in.Groups))
	case hlo.OpCollectivePermute, hlo.OpCollectivePermuteStart, hlo.OpCollectivePermuteDone:
		parts := make([]string, len(in.Pairs))
		for i, p := range in.Pairs {
			parts[i] = fmt.Sprintf("{%d,%d}", p.Source, p.Target)
		}
		attrs = append(attrs, "pairs=["+strings.Join(parts, ",")+"]")
	case hlo.OpLoop:
		attrs = append(attrs, fmt.Sprintf("trip=%d result=%d", in.TripCount, in.ResultIndex))
	}
	return attrs
}

func referenceOffsets(offsets []hlo.DynOffset) string {
	parts := make([]string, len(offsets))
	for i, o := range offsets {
		parts[i] = referenceOffset(o)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func referenceOffset(o hlo.DynOffset) string {
	if o.PIDFactor == 0 && o.IterFactor == 0 && o.Mod == 0 {
		return fmt.Sprintf("%d", o.Add*o.Scale)
	}
	div := o.Div
	if div < 1 {
		div = 1
	}
	if o.IterFactor != 0 {
		return fmt.Sprintf("((%d*(pid/%d)+%d*i+%d)%%%d)*%d", o.PIDFactor, div, o.IterFactor, o.Add, o.Mod, o.Scale)
	}
	return fmt.Sprintf("((%d*(pid/%d)+%d)%%%d)*%d", o.PIDFactor, div, o.Add, o.Mod, o.Scale)
}

// checkPrinter requires every face of the append printer — Format,
// AppendFormat behind existing bytes, the streamed TextDigest — to agree
// with the reference on c.
func checkPrinter(t *testing.T, label string, c *hlo.Computation) {
	t.Helper()
	want := referenceFormat(c)
	if got := c.Format(); got != want {
		t.Fatalf("%s: Format differs from the fmt-based reference\n--- got ---\n%s--- want ---\n%s", label, got, want)
	}
	if got := string(c.AppendFormat([]byte("kept:"))); got != "kept:"+want {
		t.Fatalf("%s: AppendFormat does not append", label)
	}
	if got := c.TextDigest(); got != sha256.Sum256([]byte(want)) {
		t.Fatalf("%s: TextDigest is not the SHA-256 of the text", label)
	}
	if got := c.UnnamedDigest(); got != sha256.Sum256([]byte(strings.TrimPrefix(want, c.Name))) {
		t.Fatalf("%s: UnnamedDigest is not the SHA-256 of the text without the name", label)
	}
}

// TestPrinterMatchesReferenceOnCorpus pins the printer byte for byte on
// every program a search over the corpus ever holds: the inputs, every
// distinct node of every enumerated Options' path through the stage
// table up to the schedule (memoised as the search does, on the parent
// and the stage's key on it), and a stamped leaf of each.
func TestPrinterMatchesReferenceOnCorpus(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.TPUv4()
	type nodeKey struct {
		parent *hlo.Computation
		stage  int
		knobs  core.Knobs
	}
	nodes := 0
	for _, p := range progs {
		checkPrinter(t, p.Name, p.Comp)
		memo := map[nodeKey]*hlo.Computation{}
		for _, o := range core.EnumerateOptions(spec, p.Devices, p.Comp) {
			n := p.Comp
			for i, st := range core.Stages()[:core.StageStamp] {
				key := nodeKey{n, i, st.On(n).Key(o)}
				child, ok := memo[key]
				if !ok {
					child = n.Clone()
					if err := st.Run(child, o, &core.Report{}); err != nil {
						t.Fatalf("%s: %s: %v", p.Name, st.Name, err)
					}
					memo[key] = child
					checkPrinter(t, fmt.Sprintf("%s after %s under %s", p.Name, st.Name, o.Fingerprint()), child)
					nodes++
				}
				n = child
			}
		}
		stamped := core.DefaultOptions(spec)
		stamped.KernelSplitK = 2
		if _, err := core.Apply(p.Comp, stamped); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkPrinter(t, p.Name+" stamped", p.Comp)
	}
	t.Logf("%d programs, %d nodes", len(progs), nodes)
}

// TestPrinterMatchesReferenceByOpcode walks every branch of the
// attribute printer with hand-built instructions, including the float
// forms fmt's %v and %g produce and both nesting levels of a body
// prefix.
func TestPrinterMatchesReferenceByOpcode(t *testing.T) {
	fused := hlo.NewComputation("fused.inner")
	f0 := fused.Parameter(0, "f0", []int{4})
	fused.Einsum("i,i->i", f0, f0).SplitK = 4

	body := hlo.NewComputation("rolled.body")
	p0 := body.Parameter(0, "p0", []int{4})
	p1 := body.Parameter(1, "p1", []int{4})
	sent := body.CollectivePermute(body.Copy(p0), []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}})
	inner := body.Fusion("fuse.in.loop", fused, p1) // two prefix levels
	body.Tuple(sent, inner)

	c := hlo.NewComputation("every-opcode")
	a := c.Parameter(0, "a", []int{4, 8})
	k := c.Constant("k", tensor.FromValues([]int{8},
		[]float64{math.Copysign(0, -1), 1e-07, math.NaN(), math.Inf(1), math.Inf(-1), 1e6, 1e21, 0.1}))
	c.Constant("scalar", tensor.Scalar(-2.5))
	c.Zeros("z", nil) // empty shape, empty operand list
	ein := c.Einsum("mk,k->mk", a, k)
	ein.SplitK = 2
	c.Einsum("mk,k->mk", a, k).SplitK = 1 // below 2: not printed
	sum := c.Add(ein, ein)
	mx := c.Max(sum, ein)
	cp := c.Copy(mx)
	rs := c.Reshape(cp, 8, 4)
	tr := c.Transpose(rs, 1, 0)
	cat := c.Concat(1, tr, tr)
	for _, v := range []float64{-1.5, math.Inf(-1), 1e-07, 3} {
		c.Pad(cat, []int{1, 0}, []int{0, 2}, v)
	}
	c.Slice(cat, []int{0, 2}, []int{4, 10})
	ds := c.DynamicSlice(a, []hlo.DynOffset{
		{PIDFactor: 1, Div: 2, IterFactor: 3, Add: 1, Mod: 4, Scale: 2}, // iteration form
		hlo.Static(3), // static form
	}, []int{2, 5})
	c.DynamicUpdateSlice(c.Zeros("base", []int{4, 8}), ds, []hlo.DynOffset{
		{PIDFactor: 1, Add: -1, Mod: 4, Scale: 2}, // partition form, Div defaulted
		{Add: 2, Scale: -3},                       // static, negative
	})
	groups := [][]int{{0, 1}, {2, 3}}
	ag := c.AllGather(a, 0, groups)
	c.ReduceScatter(ag, 0, groups)
	c.AllReduce(a, [][]int{{0, 1, 2, 3}})
	c.AllToAll(ag, 0, 1, groups)
	start := c.CollectivePermuteStart(a, []hlo.SourceTargetPair{{Source: 3, Target: 0}})
	c.CollectivePermuteDone(start)
	x := c.Parameter(1, "x", []int{4})
	lp := c.Loop(body, 3, 1, x, c.Zeros("acc", []int{4}))
	c.Fusion("fuse.top", fused, lp)
	checkPrinter(t, c.Name, c)

	text := c.Format()
	for _, want := range []string{
		"value=[-0 1e-07 NaN +Inf -Inf 1e+06 1e+21 0.1]", "value=[-2.5]",
		"value=-Inf", "value=1e-07", "value=3",
		"offsets={((1*(pid/2)+3*i+1)%4)*2,3}",
		"offsets={((1*(pid/1)+-1)%4)*2,-6}",
		"groups=[[0 1] [2 3]]", "groups=[[0 1 2 3]]", "pairs=[{3,0}]", "pairs=[{0,1},{1,0}]",
		`spec="mk,k->mk" splitk=2`,
		"    |     |   %einsum.1 = f32[4] einsum(%f0, %f0), spec=\"i,i->i\" splitk=4\n",
		"  %z = f32[] zero()\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text lacks %q:\n%s", want, text)
		}
	}

	if parsed, err := hlo.Parse(referenceFormat(c.Clone())); err == nil {
		checkPrinter(t, "parsed back", parsed)
	}
}

// TestPrinterAndCloneAllocations: appending a 150-instruction decomposed
// program into a warm buffer allocates (next to) nothing — the fmt
// printer allocated several times per instruction — and cloning one
// stays within four allocations per instruction.
func TestPrinterAndCloneAllocations(t *testing.T) {
	if corpus.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c, err := trainStep()
	if err != nil {
		t.Fatal(err)
	}
	instrs := 0
	c.Walk(func(*hlo.Instruction) { instrs++ })
	if instrs < 150 {
		t.Fatalf("program has %d instructions, want a decomposed one of at least 150", instrs)
	}

	buf := c.AppendFormat(nil)
	if allocs := testing.AllocsPerRun(20, func() { buf = c.AppendFormat(buf[:0]) }); allocs > 2 {
		t.Errorf("AppendFormat into a warm buffer: %v allocations for %d instructions, budget 2", allocs, instrs)
	}
	var clone *hlo.Computation
	allocs := testing.AllocsPerRun(20, func() { clone = c.Clone() })
	if per := allocs / float64(instrs); per > 4 {
		t.Errorf("Clone: %.1f allocations per instruction (%v for %d), budget 4", per, allocs, instrs)
	}
	if clone.Format() != string(buf) {
		t.Fatal("clone prints differently")
	}
}

// trainStep is a decomposed, fused and scheduled megatron step: the
// shape of program a search clones and prints most.
func trainStep() (*hlo.Computation, error) {
	progs, err := corpus.Programs()
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		if p.Name == "train/megatron/d8/l2" {
			o := core.DefaultOptions(machine.TPUv4())
			o.UseCostModel = false
			_, err := core.Apply(p.Comp, o)
			return p.Comp, err
		}
	}
	return nil, fmt.Errorf("corpus has no megatron step")
}
