package tensor

import (
	"fmt"
	"strings"
)

// EinsumSpec is a parsed Einstein-summation specification such as
// "bf,fh->bh". Each operand is described by a string of single-letter
// dimension labels; labels absent from the output are contracted
// (summed). A label may not repeat within a single operand.
type EinsumSpec struct {
	Inputs []string // one label string per operand
	Output string   // label string of the result
}

// ParseEinsum parses a spec of the form "lhs,rhs->out" (or a
// single-operand "in->out").
func ParseEinsum(spec string) (EinsumSpec, error) {
	parts := strings.Split(spec, "->")
	if len(parts) != 2 {
		return EinsumSpec{}, fmt.Errorf("einsum: spec %q must contain exactly one '->'", spec)
	}
	s := EinsumSpec{Inputs: strings.Split(parts[0], ","), Output: parts[1]}
	if len(s.Inputs) < 1 || len(s.Inputs) > 2 {
		return EinsumSpec{}, fmt.Errorf("einsum: spec %q must have one or two operands", spec)
	}
	var seenAnywhere labelSet
	for _, in := range s.Inputs {
		var seenHere labelSet
		for i := 0; i < len(in); i++ {
			c := in[i]
			if !isLabel(c) {
				return EinsumSpec{}, fmt.Errorf("einsum: invalid label %q in spec %q", c, spec)
			}
			if seenHere.has(c) {
				return EinsumSpec{}, fmt.Errorf("einsum: repeated label %q within one operand of %q", c, spec)
			}
			seenHere.add(c)
		}
		seenAnywhere |= seenHere
	}
	var seenOut labelSet
	for i := 0; i < len(s.Output); i++ {
		c := s.Output[i]
		if !isLabel(c) {
			return EinsumSpec{}, fmt.Errorf("einsum: invalid output label %q in spec %q", c, spec)
		}
		if !seenAnywhere.has(c) {
			return EinsumSpec{}, fmt.Errorf("einsum: output label %q not present in any operand of %q", c, spec)
		}
		if seenOut.has(c) {
			return EinsumSpec{}, fmt.Errorf("einsum: repeated output label %q in %q", c, spec)
		}
		seenOut.add(c)
	}
	return s, nil
}

func isLabel(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// numLabels is the size of the label alphabet: a-z then A-Z.
const numLabels = 52

// labelIndex is a label's slot in a label-indexed table.
func labelIndex(c byte) int {
	if c >= 'a' {
		return int(c - 'a')
	}
	return 26 + int(c-'A')
}

// labelSet is a set of labels, one bit per slot.
type labelSet uint64

func (s labelSet) has(c byte) bool { return s&(1<<labelIndex(c)) != 0 }
func (s *labelSet) add(c byte)     { *s |= 1 << labelIndex(c) }

// labelSizes is the size each label of a spec takes on given operand
// shapes: a fixed table indexed by label, so a shape or cost query on a
// spec allocates nothing.
type labelSizes struct {
	size    [numLabels]int
	present labelSet
}

func (ls *labelSizes) of(c byte) int { return ls.size[labelIndex(c)] }

// String reassembles the canonical spec text.
func (s EinsumSpec) String() string {
	return strings.Join(s.Inputs, ",") + "->" + s.Output
}

// ContractedLabels returns the labels summed away by the spec, in
// first-appearance order.
func (s EinsumSpec) ContractedLabels() string {
	var out []byte
	seen := map[byte]bool{}
	for _, in := range s.Inputs {
		for i := 0; i < len(in); i++ {
			c := in[i]
			if !seen[c] && !strings.ContainsRune(s.Output, rune(c)) {
				out = append(out, c)
			}
			seen[c] = true
		}
	}
	return string(out)
}

// BatchLabels returns labels that appear in every operand and in the
// output (the einsum batch dimensions).
func (s EinsumSpec) BatchLabels() string {
	if len(s.Inputs) < 2 {
		return ""
	}
	var out []byte
	for i := 0; i < len(s.Inputs[0]); i++ {
		c := s.Inputs[0][i]
		if strings.ContainsRune(s.Inputs[1], rune(c)) && strings.ContainsRune(s.Output, rune(c)) {
			out = append(out, c)
		}
	}
	return string(out)
}

// OutputShape computes the result shape of applying the spec to operands
// with the given shapes, validating label-size consistency.
func (s EinsumSpec) OutputShape(shapes ...[]int) ([]int, error) {
	sizes, err := s.labelSizes(shapes)
	if err != nil {
		return nil, err
	}
	return s.outputShape(&sizes), nil
}

// outputShape is the result shape under the given label sizes.
func (s EinsumSpec) outputShape(sizes *labelSizes) []int {
	out := make([]int, len(s.Output))
	for i := 0; i < len(s.Output); i++ {
		out[i] = sizes.of(s.Output[i])
	}
	return out
}

// hasOutputShape reports whether shape is the result shape under the
// given label sizes, without building it.
func (s EinsumSpec) hasOutputShape(sizes *labelSizes, shape []int) bool {
	if len(shape) != len(s.Output) {
		return false
	}
	for i := 0; i < len(s.Output); i++ {
		if shape[i] != sizes.of(s.Output[i]) {
			return false
		}
	}
	return true
}

// Flops returns the floating-point operation count of evaluating the spec
// on the given operand shapes, using the standard 2*prod(label sizes)
// multiply-accumulate convention for two-operand einsums.
func (s EinsumSpec) Flops(shapes ...[]int) (int64, error) {
	sizes, err := s.labelSizes(shapes)
	if err != nil {
		return 0, err
	}
	return s.flops(&sizes), nil
}

func (s EinsumSpec) flops(sizes *labelSizes) int64 {
	total := int64(1)
	for i, size := range sizes.size {
		if sizes.present&(1<<i) != 0 {
			total *= int64(size)
		}
	}
	if len(s.Inputs) == 2 {
		total *= 2
	}
	return total
}

// MatmulStats returns Flops and the spec's (batched) matmul view on the
// given operand shapes: m the product of the output labels only the
// first operand carries, n of those only the second carries, k of the
// contracted labels. Labels both operands and the output carry are batch
// dimensions and enter none of the three.
func (s EinsumSpec) MatmulStats(shapes ...[]int) (flops int64, m, n, k int, err error) {
	sizes, err := s.labelSizes(shapes)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var lhs, rhs, out labelSet
	for i := 0; i < len(s.Inputs[0]); i++ {
		lhs.add(s.Inputs[0][i])
	}
	if len(s.Inputs) > 1 {
		for i := 0; i < len(s.Inputs[1]); i++ {
			rhs.add(s.Inputs[1][i])
		}
	}
	for i := 0; i < len(s.Output); i++ {
		out.add(s.Output[i])
	}
	m, n, k = 1, 1, 1
	for i, size := range sizes.size {
		switch bit := labelSet(1) << i; {
		case sizes.present&bit == 0:
		case out&bit == 0:
			k *= size
		case lhs&bit != 0 && rhs&bit != 0:
		case lhs&bit != 0:
			m *= size
		default:
			n *= size
		}
	}
	return s.flops(&sizes), m, n, k, nil
}

func (s EinsumSpec) labelSizes(shapes [][]int) (labelSizes, error) {
	var sizes labelSizes
	if len(shapes) != len(s.Inputs) {
		return sizes, fmt.Errorf("einsum: %s expects %d operands, got %d", s, len(s.Inputs), len(shapes))
	}
	for op, labels := range s.Inputs {
		if len(labels) != len(shapes[op]) {
			return sizes, fmt.Errorf("einsum: operand %d of %s has rank %d, want %d", op, s, len(shapes[op]), len(labels))
		}
		for i := 0; i < len(labels); i++ {
			c := labels[i]
			if prev := sizes.of(c); sizes.present.has(c) && prev != shapes[op][i] {
				return sizes, fmt.Errorf("einsum: label %q size mismatch %d vs %d in %s", c, prev, shapes[op][i], s)
			}
			sizes.size[labelIndex(c)] = shapes[op][i]
			sizes.present.add(c)
		}
	}
	return sizes, nil
}

// Einsum evaluates spec on the operands. It panics on malformed specs or
// mismatched shapes; the HLO verifier catches those earlier in compiler
// flows, so a failure here indicates an internal bug. The spec's parse
// and GEMM lowering are cached per spec string, so repeated executions
// (the interpreter and runtime evaluate the same instruction every step)
// skip straight to the kernel.
func Einsum(spec string, operands ...*Tensor) *Tensor {
	return EinsumSplitK(KernelSplitK(), spec, operands...)
}

// EinsumSplitK is Einsum with an explicit split-K factor for this call:
// 0/1 is off, >= 2 is that factor (clamped). The executors pass each
// einsum instruction's own factor (hlo.Instruction.SplitK).
func EinsumSplitK(splitK int, spec string, operands ...*Tensor) *Tensor {
	return EinsumIntoSplitK(nil, nil, splitK, spec, operands...)
}

// EinsumIntoSplitK is EinsumSplitK writing into dst (see ops.go for
// the destination convention), with its packing scratch by way of
// scratch (nil: the shared classes); dst must not alias an operand.
func EinsumIntoSplitK(dst *Tensor, scratch *Stash, splitK int, spec string, operands ...*Tensor) *Tensor {
	e, err := einsumLookup(spec)
	if err != nil {
		panic(err)
	}
	out, err := einsumExec(e, dst, operands, splitK, scratch)
	if err != nil {
		panic(err)
	}
	return out
}

// ReferenceEinsum evaluates spec on the operands through the odometer
// reference path unconditionally, bypassing the GEMM kernel engine. It
// exists for differential tests and benchmarks (the kernel's results
// are byte-identical to it by contract); production callers use Einsum.
func ReferenceEinsum(spec string, operands ...*Tensor) *Tensor {
	e, err := einsumLookup(spec)
	if err != nil {
		panic(err)
	}
	out, err := newEinsumOutput(e.spec, nil, operands)
	if err != nil {
		panic(err)
	}
	einsumReference(out, e.spec, operands)
	return out
}

// newEinsumOutput validates the operand shapes and returns the zeroed
// result tensor: a fresh one, or dst cleared. Validating a given dst
// allocates nothing.
func newEinsumOutput(spec EinsumSpec, dst *Tensor, operands []*Tensor) (*Tensor, error) {
	var stack [4][]int
	shapes := stack[:0]
	for _, op := range operands {
		shapes = append(shapes, op.shape)
	}
	sizes, err := spec.labelSizes(shapes)
	if err != nil {
		return nil, err
	}
	if dst == nil || !spec.hasOutputShape(&sizes, dst.shape) {
		// A fresh result, or resolveDst's panic on a mis-shaped dst.
		return Zero(dst, spec.outputShape(&sizes)...), nil
	}
	clear(dst.data)
	return dst, nil
}

// einsumExec validates shapes and runs the fastest applicable path:
// the blocked GEMM kernel for lowerable two-operand specs, otherwise
// the odometer reference.
func einsumExec(e *einsumEntry, dst *Tensor, operands []*Tensor, splitK int, sc *Stash) (*Tensor, error) {
	out, err := newEinsumOutput(e.spec, dst, operands)
	if err != nil {
		return nil, err
	}
	t0, timed := kernelTimerStart()
	if len(operands) == 2 && e.plan.ok {
		e.plan.run(out, operands[0], operands[1], KernelWorkers(), splitK, sc)
		kernelGemmOps.Inc()
	} else {
		einsumReference(out, e.spec, operands)
		kernelFallbackOps.Inc()
	}
	kernelTimerEnd(t0, timed)
	return out, nil
}

// einsumReference accumulates the spec's terms into out with the scalar
// odometer loop — the original correctness-substrate path, kept as the
// fallback for specs the GEMM engine cannot lower and as the oracle the
// kernel's differential tests compare against. It adds onto out's
// existing contents (a zeroed tensor yields the plain einsum), visiting
// each output element's contracted terms in row-major order over the
// contracted labels.
func einsumReference(out *Tensor, spec EinsumSpec, operands []*Tensor) {
	shapes := make([][]int, len(operands))
	for i, op := range operands {
		shapes[i] = op.shape
	}
	sizes, err := spec.labelSizes(shapes)
	if err != nil {
		panic(err) // callers validated already; this is an internal bug
	}

	// The iteration space is output labels followed by contracted labels.
	// For each operand (and the output) we precompute a per-position
	// stride so offsets can be maintained incrementally as the odometer
	// advances — O(1) work per step instead of re-deriving indices.
	labels := spec.Output + spec.ContractedLabels()
	dims := make([]int, len(labels))
	for i := 0; i < len(labels); i++ {
		dims[i] = sizes.of(labels[i])
	}
	strideFor := func(opLabels string, strides []int) []int {
		res := make([]int, len(labels))
		for i := 0; i < len(labels); i++ {
			for j := 0; j < len(opLabels); j++ {
				if opLabels[j] == labels[i] {
					res[i] = strides[j]
				}
			}
		}
		return res
	}
	outStride := strideFor(spec.Output, out.strides)
	opStrides := make([][]int, len(operands))
	for i, op := range operands {
		opStrides[i] = strideFor(spec.Inputs[i], op.strides)
	}

	total := 1
	for _, d := range dims {
		total *= d
	}
	if total == 0 {
		return
	}
	odometer := make([]int, len(labels))
	offsets := make([]int, len(operands))
	outOff := 0
	for step := 0; ; step++ {
		term := 1.0
		for i, op := range operands {
			term *= op.data[offsets[i]]
		}
		out.data[outOff] += term
		// Advance the odometer, updating offsets incrementally.
		pos := len(labels) - 1
		for ; pos >= 0; pos-- {
			odometer[pos]++
			if odometer[pos] < dims[pos] {
				for i := range operands {
					offsets[i] += opStrides[i][pos]
				}
				outOff += outStride[pos]
				break
			}
			odometer[pos] = 0
			for i := range operands {
				offsets[i] -= (dims[pos] - 1) * opStrides[i][pos]
			}
			outOff -= (dims[pos] - 1) * outStride[pos]
		}
		if pos < 0 {
			break
		}
	}
}
