package hlo

import (
	"fmt"
	"strconv"
	"strings"

	"overlap/internal/tensor"
)

// Parse reads the text produced by Computation.Format back into a
// Computation, including fusion and loop bodies. Together with Format
// it gives the IR a stable textual exchange form: dumps from overlap hlo
// can be edited and re-loaded, and golden tests can assert on program
// text.
func Parse(text string) (*Computation, error) {
	lines := strings.Split(text, "\n")
	// Drop leading comment/blank lines (overlap hlo prefixes reports
	// with // comments) and trailing blanks.
	first := 1
	for len(lines) > 0 {
		t := strings.TrimSpace(lines[0])
		if t == "" || strings.HasPrefix(t, "//") {
			lines = lines[1:]
			first++
			continue
		}
		break
	}
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	c, rest, err := parseComputation(lines, first)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("hlo: trailing content after computation: %q", rest[0])
	}
	return c, nil
}

// The scanners below read a line left to right in the order printer.go
// writes it. A name is a run of bytes with no blank (space, tab, CR,
// LF, FF) in it; an integer is an optional '-' and ASCII digits.

// blanks are the bytes that end a name.
const blanks = " \t\n\f\r"

// scanHeader reads a "name {" line: the computation's name, or false.
func scanHeader(line string) (string, bool) {
	name, ok := strings.CutSuffix(line, " {")
	if !ok || name == "" || strings.ContainsAny(name, blanks) {
		return "", false
	}
	return name, true
}

// instrLine is one scanned instruction line:
// "  %name = f32[shape] opcode(operands)" and optionally ", attrs".
type instrLine struct {
	name, shape, op, operands, attrs string
}

// scanInstr splits an instruction line into its fields, or reports
// false when the line is not one.
func scanInstr(line string) (instrLine, bool) {
	var in instrLine
	rest, ok := strings.CutPrefix(line, "  %")
	if !ok {
		return in, false
	}
	end := strings.IndexAny(rest, blanks)
	if end <= 0 {
		return in, false
	}
	in.name = rest[:end]
	if rest, ok = strings.CutPrefix(rest[end:], " = f32["); !ok {
		return in, false
	}
	if in.shape, rest, ok = strings.Cut(rest, "]"); !ok || strings.Trim(in.shape, "0123456789 ") != "" {
		return in, false
	}
	if rest, ok = strings.CutPrefix(rest, " "); !ok {
		return in, false
	}
	if in.op, rest, ok = strings.Cut(rest, "("); !ok || in.op == "" || strings.Trim(in.op, "abcdefghijklmnopqrstuvwxyz-") != "" {
		return in, false
	}
	if in.operands, rest, ok = strings.Cut(rest, ")"); !ok {
		return in, false
	}
	if rest == "" {
		return in, true
	}
	in.attrs, ok = strings.CutPrefix(rest, ", ")
	return in, ok
}

// scanInteger reads an integer off the front of s: its text, and what
// follows it.
func scanInteger(s string) (num, rest string, ok bool) {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	digits := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return s[:i], s[i:], i > digits
}

// parseComputation consumes one "name { ... }" block from lines and
// returns the remaining lines. first is the text's line number of
// lines[0]. The text comes from outside the program — a plan file, a
// request body — so an instruction the builder methods would panic on
// is an error naming its line.
func parseComputation(lines []string, first int) (*Computation, []string, error) {
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("hlo: empty input")
	}
	header, ok := scanHeader(strings.TrimRight(lines[0], " "))
	if !ok {
		return nil, nil, fmt.Errorf("hlo: expected computation header, got %q", lines[0])
	}
	c := NewComputation(header)
	byName := map[string]*Instruction{}
	i := 1
	for ; i < len(lines); i++ {
		line, at := strings.TrimRight(lines[i], " "), first+i
		if line == "}" {
			return c, lines[i+1:], nil
		}
		im, ok := scanInstr(line)
		if !ok {
			return nil, nil, fmt.Errorf("hlo: cannot parse instruction line %q", line)
		}
		name, shapeStr, opName, operandStr, attrStr := im.name, im.shape, im.op, im.operands, im.attrs
		op, ok := opByName(opName)
		if !ok {
			return nil, nil, fmt.Errorf("hlo: unknown opcode %q", opName)
		}
		shape, err := parseInts(shapeStr)
		if err != nil {
			return nil, nil, fmt.Errorf("hlo: bad shape in %q: %w", line, err)
		}
		in := &Instruction{Op: op, Name: name, Shape: shape}
		for _, opName := range splitOperands(operandStr) {
			ref, ok := byName[strings.TrimPrefix(opName, "%")]
			if !ok {
				return nil, nil, fmt.Errorf("hlo: %s references undefined operand %s", name, opName)
			}
			in.Operands = append(in.Operands, ref)
		}
		if err := applyAttrs(in, attrStr); err != nil {
			return nil, nil, fmt.Errorf("hlo: %s: %w", name, err)
		}

		// A fusion or loop is followed by its indented body.
		if op == OpFusion || op == OpLoop {
			var bodyLines []string
			j := i + 1
			for ; j < len(lines); j++ {
				trimmed := lines[j]
				if !strings.HasPrefix(trimmed, "    | ") {
					break
				}
				bodyLines = append(bodyLines, strings.TrimPrefix(trimmed, "    | "))
			}
			body, rest, err := parseComputation(bodyLines, at+1)
			if err != nil {
				return nil, nil, fmt.Errorf("hlo: body of %s: %w", name, err)
			}
			if len(rest) != 0 {
				return nil, nil, fmt.Errorf("hlo: body of %s has trailing lines", name)
			}
			in.Body = body
			i = j - 1
		}

		built, err := c.tryBuild(in)
		if err != nil {
			return nil, nil, fmt.Errorf("hlo: line %d: %w", at, err)
		}
		byName[built.Name] = built
	}
	return nil, nil, fmt.Errorf("hlo: computation %s not closed", c.Name)
}

func opByName(name string) (OpCode, bool) {
	for op, n := range opNames {
		if n == name {
			return op, true
		}
	}
	return OpInvalid, false
}

func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ", ")
	return parts
}

// applyAttrs decodes the printer's attribute text onto the instruction.
func applyAttrs(in *Instruction, attrs string) error {
	if attrs == "" {
		return nil
	}
	if in.Op != OpEinsum && strings.Contains(attrs, "splitk=") {
		return fmt.Errorf("splitk attribute on %s (einsum only)", in.Op)
	}
	switch in.Op {
	case OpParameter:
		return attrInt(attrs, "index=", &in.ParamIndex)
	case OpEinsum:
		quoted, err := strconv.QuotedPrefix(cut(attrs, "spec="))
		if err == nil {
			in.EinsumSpec, err = strconv.Unquote(quoted)
		}
		if err != nil {
			return fmt.Errorf("bad einsum spec %q: %w", attrs, err)
		}
		rest := strings.TrimPrefix(attrs, "spec="+quoted)
		if rest == "" {
			return nil
		}
		factor, ok := strings.CutPrefix(rest, " splitk=")
		if !ok {
			return fmt.Errorf("bad einsum attrs %q", attrs)
		}
		if in.SplitK, err = strconv.Atoi(factor); err != nil {
			return fmt.Errorf("bad einsum splitk %q", factor)
		}
		return checkSplitK(in.Op, in.SplitK)
	}
	// Every other opcode's attributes go into an Attrs of its own, the
	// one the built instruction keeps.
	a := new(Attrs)
	in.Attrs = a
	switch in.Op {
	case OpConstant:
		vals, err := parseFloats(cut(attrs, "value="))
		if err != nil {
			return err
		}
		// Checked before FromValues sizes a tensor by the declared shape;
		// in floating point, so an absurd shape cannot overflow into
		// agreement.
		n := 1.0
		for _, d := range in.Shape {
			n *= float64(d)
		}
		if n != float64(len(vals)) {
			return fmt.Errorf("constant of shape %v has %d values", in.Shape, len(vals))
		}
		a.Literal = tensor.FromValues(in.Shape, vals)
		return nil
	case OpConcat:
		return attrInt(attrs, "axis=", &a.Axis)
	case OpPad:
		lowStr, rest, ok := strings.Cut(cut(attrs, "low="), " high=")
		if !ok {
			return fmt.Errorf("bad pad attrs %q", attrs)
		}
		highStr, valStr, ok := strings.Cut(rest, " value=")
		if !ok {
			return fmt.Errorf("bad pad attrs %q", attrs)
		}
		var err error
		if a.PadLow, err = parseInts(strings.Trim(lowStr, "[]")); err != nil {
			return err
		}
		if a.PadHigh, err = parseInts(strings.Trim(highStr, "[]")); err != nil {
			return err
		}
		if a.PadValue, err = strconv.ParseFloat(valStr, 64); err != nil {
			return err
		}
		return nil
	case OpSlice:
		body := strings.TrimSuffix(strings.TrimPrefix(cut(attrs, "bounds="), "[["), "]]")
		startStr, limitStr, ok := strings.Cut(body, "]:[")
		if !ok {
			return fmt.Errorf("bad slice bounds %q", attrs)
		}
		var err error
		if a.Starts, err = parseInts(startStr); err != nil {
			return err
		}
		if a.Limits, err = parseInts(limitStr); err != nil {
			return err
		}
		return nil
	case OpDynamicSlice:
		offStr, sizeStr, ok := strings.Cut(cut(attrs, "offsets="), " sizes=")
		if !ok {
			return fmt.Errorf("bad dynamic-slice attrs %q", attrs)
		}
		var err error
		if a.Offsets, err = parseOffsets(offStr); err != nil {
			return err
		}
		if a.SliceSizes, err = parseInts(strings.Trim(sizeStr, "[]")); err != nil {
			return err
		}
		return nil
	case OpDynamicUpdateSlice:
		var err error
		a.Offsets, err = parseOffsets(cut(attrs, "offsets="))
		return err
	case OpTranspose:
		var err error
		a.Perm, err = parseInts(strings.Trim(cut(attrs, "perm="), "[]"))
		return err
	case OpAllGather, OpReduceScatter, OpAllToAll:
		axisStr, groupStr, ok := strings.Cut(cut(attrs, "axis="), " groups=")
		if !ok {
			return fmt.Errorf("bad collective attrs %q", attrs)
		}
		axis, err := strconv.Atoi(axisStr)
		if err != nil {
			return err
		}
		a.CollectiveAxis = axis
		if in.Op == OpAllToAll {
			a.Axis = axis // printer emits the split axis; concat axis matches for parsed text
		}
		a.Groups, err = parseGroups(groupStr)
		return err
	case OpAllReduce:
		var err error
		a.Groups, err = parseGroups(cut(attrs, "groups="))
		return err
	case OpCollectivePermute, OpCollectivePermuteStart, OpCollectivePermuteDone:
		a.Pairs = scanPairs(attrs)
		return nil
	case OpLoop:
		tripStr, resStr, ok := strings.Cut(cut(attrs, "trip="), " result=")
		if !ok {
			return fmt.Errorf("bad loop attrs %q", attrs)
		}
		var err error
		if a.TripCount, err = strconv.Atoi(tripStr); err != nil {
			return err
		}
		a.ResultIndex, err = strconv.Atoi(resStr)
		return err
	}
	return nil
}

func cut(s, prefix string) string {
	return strings.TrimPrefix(s, prefix)
}

// attrInt reads an attribute the printer writes as prefix and an
// integer.
func attrInt(s, prefix string, out *int) error {
	num, ok := strings.CutPrefix(s, prefix)
	v, err := strconv.Atoi(num)
	if !ok || err != nil {
		return fmt.Errorf("bad attribute %q, want %sN", s, prefix)
	}
	*out = v
	return nil
}

func parseInts(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	fields := strings.Fields(s)
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out[i] = v
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	s = strings.Trim(strings.TrimSpace(s), "[]")
	if s == "" {
		return nil, nil
	}
	fields := strings.Fields(s)
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", f)
		}
		out[i] = v
	}
	return out, nil
}

// parseOffsets decodes the printer's {expr,expr,...} offset list. Plain
// integers become constant offsets; the symbolic form recovers every
// DynOffset field.
func parseOffsets(s string) ([]DynOffset, error) {
	s = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(s), "{"), "}")
	if s == "" {
		return nil, nil
	}
	// Split on commas that are not inside parentheses.
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])

	out := make([]DynOffset, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if v, err := strconv.Atoi(p); err == nil {
			out[i] = DynOffset{Add: v, Scale: 1}
			continue
		}
		o, ok := scanOffset(p)
		if !ok {
			return nil, fmt.Errorf("bad offset expression %q", p)
		}
		out[i] = o
	}
	return out, nil
}

// scanOffset reads the symbolic offset form the printer writes,
// ((P*(pid/D)+[I*i+]A)%M)*S, recovering every DynOffset field.
func scanOffset(s string) (DynOffset, bool) {
	var o DynOffset
	// Each field is an integer behind a fixed text; the iteration term
	// is the one optional part.
	field := func(prefix string, unsigned bool, dst *int) bool {
		var ok bool
		if s, ok = strings.CutPrefix(s, prefix); !ok {
			return false
		}
		var num string
		if num, s, ok = scanInteger(s); !ok || (unsigned && num[0] == '-') {
			return false
		}
		*dst, _ = strconv.Atoi(num) // out of range saturates, as before
		return true
	}
	if !field("((", false, &o.PIDFactor) || !field("*(pid/", true, &o.Div) || !field(")+", false, &o.Add) {
		return o, false
	}
	if strings.HasPrefix(s, "*i+") {
		o.IterFactor = o.Add
		if !field("*i+", false, &o.Add) {
			return o, false
		}
	}
	if !field(")%", false, &o.Mod) || !field(")*", false, &o.Scale) {
		return o, false
	}
	return o, s == ""
}

// scanPairs reads every {source,target} pair in a permute's attribute
// text, left to right.
func scanPairs(s string) []SourceTargetPair {
	var pairs []SourceTargetPair
	for {
		at := strings.IndexByte(s, '{')
		if at < 0 {
			return pairs
		}
		s = s[at+1:]
		src, rest, ok := scanInteger(s)
		if !ok {
			continue
		}
		if rest, ok = strings.CutPrefix(rest, ","); !ok {
			continue
		}
		dst, rest, ok := scanInteger(rest)
		if !ok {
			continue
		}
		if rest, ok = strings.CutPrefix(rest, "}"); !ok {
			continue
		}
		p := SourceTargetPair{}
		p.Source, _ = strconv.Atoi(src) // out of range saturates, as before
		p.Target, _ = strconv.Atoi(dst)
		pairs = append(pairs, p)
		s = rest
	}
}

// parseGroups decodes fmt's [][]int rendering, e.g. "[[0 1] [2 3]]".
func parseGroups(s string) ([][]int, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[[") || !strings.HasSuffix(s, "]]") {
		return nil, fmt.Errorf("bad groups %q", s)
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(s, "[["), "]]")
	var groups [][]int
	for _, g := range strings.Split(inner, "] [") {
		ints, err := parseInts(g)
		if err != nil {
			return nil, err
		}
		groups = append(groups, ints)
	}
	return groups, nil
}
