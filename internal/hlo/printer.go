package hlo

import (
	"crypto/sha256"
	"hash"
	"strconv"
)

// The printer is one strconv.Append* pass: every byte of a
// computation's text is appended to a caller-supplied buffer, fusion
// and loop bodies directly behind their "    | " prefixes, so printing
// allocates nothing beyond the buffer's own growth. Format and
// TextDigest are its two callers; printer_test.go pins it byte for byte
// against the fmt-based printer it replaced.

// bodyPrefix indents one nesting level of a fusion or loop body.
const bodyPrefix = "    | "

// digestChunk is how much text TextDigest buffers between hash writes.
const digestChunk = 512

// Format renders the computation in an HLO-text-like form, one scheduled
// instruction per line. Fusion bodies are printed indented beneath their
// fusion instruction.
func (c *Computation) Format() string { return string(c.AppendFormat(nil)) }

// AppendFormat appends the computation's Format text to dst and returns
// the extended buffer.
func (c *Computation) AppendFormat(dst []byte) []byte {
	return c.appendText(dst, c.Name, 0, nil)
}

// TextDigest returns the SHA-256 of the computation's Format text
// without building it: the text streams through one small buffer into
// the hash.
func (c *Computation) TextDigest() [sha256.Size]byte { return c.digest(c.Name) }

// UnnamedDigest is TextDigest of the text with the computation's own
// name left out: two programs that differ only in what they are called
// digest alike. Fusion and loop bodies keep their names, which the
// pipeline derives from instruction names.
func (c *Computation) UnnamedDigest() [sha256.Size]byte { return c.digest("") }

func (c *Computation) digest(name string) [sha256.Size]byte {
	h := sha256.New()
	h.Write(c.appendText(make([]byte, 0, 2*digestChunk), name, 0, h))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// appendText appends the text of c under the given name, nested depth
// bodies deep. With a sink, the buffer is drained into it whenever a
// finished line leaves more than digestChunk bytes pending; the caller
// writes what remains.
func (c *Computation) appendText(dst []byte, name string, depth int, sink hash.Hash) []byte {
	dst = appendPrefix(dst, depth)
	dst = append(dst, name...)
	dst = append(dst, " {\n"...)
	for _, in := range c.instrs {
		dst = appendPrefix(dst, depth)
		dst = append(dst, "  "...)
		dst = appendInstruction(dst, in)
		dst = append(dst, '\n')
		if in.Op == OpFusion || in.Op == OpLoop {
			dst = in.Body.appendText(dst, in.Body.Name, depth+1, sink)
		}
		if sink != nil && len(dst) >= digestChunk {
			sink.Write(dst)
			dst = dst[:0]
		}
	}
	dst = appendPrefix(dst, depth)
	return append(dst, "}\n"...)
}

func appendPrefix(dst []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		dst = append(dst, bodyPrefix...)
	}
	return dst
}

func appendInstruction(dst []byte, in *Instruction) []byte {
	dst = append(dst, '%')
	dst = append(dst, in.Name...)
	dst = append(dst, " = f32"...)
	dst = appendInts(dst, in.Shape)
	dst = append(dst, ' ')
	dst = append(dst, in.Op.String()...)
	dst = append(dst, '(')
	for i, op := range in.Operands {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, '%')
		dst = append(dst, op.Name...)
	}
	dst = append(dst, ')')
	return appendAttributes(dst, in)
}

func appendAttributes(dst []byte, in *Instruction) []byte {
	switch in.Op {
	case OpParameter:
		dst = append(dst, ", index="...)
		dst = strconv.AppendInt(dst, int64(in.ParamIndex), 10)
	case OpConstant:
		dst = append(dst, ", value=["...)
		for i, v := range in.Literal.Data() {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = appendFloat(dst, v)
		}
		dst = append(dst, ']')
	case OpEinsum:
		dst = append(dst, ", spec="...)
		dst = strconv.AppendQuote(dst, in.EinsumSpec)
		if in.SplitK >= 2 {
			dst = append(dst, " splitk="...)
			dst = strconv.AppendInt(dst, int64(in.SplitK), 10)
		}
	case OpConcat:
		dst = append(dst, ", axis="...)
		dst = strconv.AppendInt(dst, int64(in.Axis), 10)
	case OpPad:
		dst = append(dst, ", low="...)
		dst = appendInts(dst, in.PadLow)
		dst = append(dst, " high="...)
		dst = appendInts(dst, in.PadHigh)
		dst = append(dst, " value="...)
		dst = appendFloat(dst, in.PadValue)
	case OpSlice:
		dst = append(dst, ", bounds=["...)
		dst = appendInts(dst, in.Starts)
		dst = append(dst, ':')
		dst = appendInts(dst, in.Limits)
		dst = append(dst, ']')
	case OpDynamicSlice:
		dst = append(dst, ", offsets="...)
		dst = appendOffsets(dst, in.Offsets)
		dst = append(dst, " sizes="...)
		dst = appendInts(dst, in.SliceSizes)
	case OpDynamicUpdateSlice:
		dst = append(dst, ", offsets="...)
		dst = appendOffsets(dst, in.Offsets)
	case OpTranspose:
		dst = append(dst, ", perm="...)
		dst = appendInts(dst, in.Perm)
	case OpAllGather, OpReduceScatter, OpAllToAll:
		dst = append(dst, ", axis="...)
		dst = strconv.AppendInt(dst, int64(in.CollectiveAxis), 10)
		dst = append(dst, " groups="...)
		dst = appendGroups(dst, in.Groups)
	case OpAllReduce:
		dst = append(dst, ", groups="...)
		dst = appendGroups(dst, in.Groups)
	case OpCollectivePermute, OpCollectivePermuteStart, OpCollectivePermuteDone:
		dst = append(dst, ", pairs=["...)
		for i, p := range in.Pairs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			dst = strconv.AppendInt(dst, int64(p.Source), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(p.Target), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	case OpLoop:
		dst = append(dst, ", trip="...)
		dst = strconv.AppendInt(dst, int64(in.TripCount), 10)
		dst = append(dst, " result="...)
		dst = strconv.AppendInt(dst, int64(in.ResultIndex), 10)
	}
	return dst
}

// appendInts renders vs as fmt's %v does a []int: "[1 2 3]".
func appendInts(dst []byte, vs []int) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendGroups renders device groups as fmt's %v does a [][]int.
func appendGroups(dst []byte, groups [][]int) []byte {
	dst = append(dst, '[')
	for i, g := range groups {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = appendInts(dst, g)
	}
	return append(dst, ']')
}

// appendFloat renders v as fmt's %v and %g do a float64: strconv's
// shortest round-tripping 'g' form ("-0", "1e-07", "1e+06", "NaN",
// "+Inf").
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

func appendOffsets(dst []byte, offsets []DynOffset) []byte {
	dst = append(dst, '{')
	for i, o := range offsets {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = o.appendText(dst)
	}
	return append(dst, '}')
}

// appendText appends the offset in the closed form the parser reads
// back: a bare integer when static, else ((P*(pid/D)+[I*i+]A)%M)*S.
func (o DynOffset) appendText(dst []byte) []byte {
	if o.PIDFactor == 0 && o.IterFactor == 0 && o.Mod == 0 {
		return strconv.AppendInt(dst, int64(o.Add*o.Scale), 10)
	}
	div := o.Div
	if div < 1 {
		div = 1
	}
	dst = append(dst, "(("...)
	dst = strconv.AppendInt(dst, int64(o.PIDFactor), 10)
	dst = append(dst, "*(pid/"...)
	dst = strconv.AppendInt(dst, int64(div), 10)
	dst = append(dst, ")+"...)
	if o.IterFactor != 0 {
		dst = strconv.AppendInt(dst, int64(o.IterFactor), 10)
		dst = append(dst, "*i+"...)
	}
	dst = strconv.AppendInt(dst, int64(o.Add), 10)
	dst = append(dst, ")%"...)
	dst = strconv.AppendInt(dst, int64(o.Mod), 10)
	dst = append(dst, ")*"...)
	return strconv.AppendInt(dst, int64(o.Scale), 10)
}
