package hlo

import (
	"fmt"
	"strings"
)

// Format renders the computation in an HLO-text-like form, one scheduled
// instruction per line. Fusion bodies are printed indented beneath their
// fusion instruction.
func (c *Computation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s {\n", c.Name)
	for _, in := range c.instrs {
		b.WriteString("  ")
		b.WriteString(formatInstruction(in))
		b.WriteByte('\n')
		if in.Op == OpFusion || in.Op == OpLoop {
			for _, line := range strings.Split(in.Body.Format(), "\n") {
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

func formatInstruction(in *Instruction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%s = f32%v %s(", in.Name, in.Shape, in.Op)
	for i, op := range in.Operands {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%%%s", op.Name)
	}
	b.WriteByte(')')
	for _, attr := range formatAttributes(in) {
		fmt.Fprintf(&b, ", %s", attr)
	}
	return b.String()
}

func formatAttributes(in *Instruction) []string {
	var attrs []string
	switch in.Op {
	case OpParameter:
		attrs = append(attrs, fmt.Sprintf("index=%d", in.ParamIndex))
	case OpConstant:
		attrs = append(attrs, fmt.Sprintf("value=%v", in.Literal.Data()))
	case OpEinsum:
		attr := fmt.Sprintf("spec=%q", in.EinsumSpec)
		if in.SplitK >= 2 {
			attr += fmt.Sprintf(" splitk=%d", in.SplitK)
		}
		attrs = append(attrs, attr)
	case OpConcat:
		attrs = append(attrs, fmt.Sprintf("axis=%d", in.Axis))
	case OpPad:
		attrs = append(attrs, fmt.Sprintf("low=%v high=%v value=%g", in.PadLow, in.PadHigh, in.PadValue))
	case OpSlice:
		attrs = append(attrs, fmt.Sprintf("bounds=[%v:%v]", in.Starts, in.Limits))
	case OpDynamicSlice:
		attrs = append(attrs, fmt.Sprintf("offsets=%s sizes=%v", formatOffsets(in.Offsets), in.SliceSizes))
	case OpDynamicUpdateSlice:
		attrs = append(attrs, fmt.Sprintf("offsets=%s", formatOffsets(in.Offsets)))
	case OpTranspose:
		attrs = append(attrs, fmt.Sprintf("perm=%v", in.Perm))
	case OpAllGather, OpReduceScatter, OpAllToAll:
		attrs = append(attrs, fmt.Sprintf("axis=%d groups=%v", in.CollectiveAxis, in.Groups))
	case OpAllReduce:
		attrs = append(attrs, fmt.Sprintf("groups=%v", in.Groups))
	case OpCollectivePermute, OpCollectivePermuteStart, OpCollectivePermuteDone:
		attrs = append(attrs, fmt.Sprintf("pairs=%s", formatPairs(in.Pairs)))
	case OpLoop:
		attrs = append(attrs, fmt.Sprintf("trip=%d result=%d", in.TripCount, in.ResultIndex))
	}
	return attrs
}

func formatOffsets(offsets []DynOffset) string {
	parts := make([]string, len(offsets))
	for i, o := range offsets {
		parts[i] = o.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatPairs(pairs []SourceTargetPair) string {
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = fmt.Sprintf("{%d,%d}", p.Source, p.Target)
	}
	return "[" + strings.Join(parts, ",") + "]"
}
