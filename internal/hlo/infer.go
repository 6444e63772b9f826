package hlo

import (
	"fmt"

	"overlap/internal/tensor"
)

// inferShape computes the result shape of an instruction from its
// operands and attributes. It is the single source of truth used both by
// the builder (to stamp shapes) and the verifier (to re-check them).
func inferShape(in *Instruction) ([]int, error) {
	switch in.Op {
	case OpParameter:
		return in.Shape, nil // parameters carry their declared shape

	case OpConstant:
		if in.Literal == nil {
			return nil, fmt.Errorf("constant without literal")
		}
		return in.Literal.Shape(), nil

	case OpZero:
		if len(in.Operands) != 0 {
			return nil, fmt.Errorf("zero takes no operands")
		}
		return in.Shape, nil

	case OpEinsum:
		if len(in.Operands) != 2 {
			return nil, fmt.Errorf("einsum needs 2 operands, has %d", len(in.Operands))
		}
		facts, err := in.einsumFacts()
		if err != nil {
			return nil, err
		}
		return facts.spec.OutputShape(in.Operands[0].Shape, in.Operands[1].Shape)

	case OpAdd, OpMax:
		if len(in.Operands) != 2 {
			return nil, fmt.Errorf("%s needs 2 operands", in.Op)
		}
		a, b := in.Operands[0].Shape, in.Operands[1].Shape
		if !sameShape(a, b) {
			return nil, fmt.Errorf("%s shape mismatch %v vs %v", in.Op, a, b)
		}
		return a, nil

	case OpCopy:
		return unary(in)

	case OpReshape:
		src, err := unary(in)
		if err != nil {
			return nil, err
		}
		if numElements(src) != numElements(in.Shape) {
			return nil, fmt.Errorf("reshape %v -> %v changes element count", src, in.Shape)
		}
		return in.Shape, nil

	case OpTranspose:
		src, err := unary(in)
		if err != nil {
			return nil, err
		}
		if len(in.Perm) != len(src) {
			return nil, fmt.Errorf("transpose perm %v rank mismatch for %v", in.Perm, src)
		}
		out := make([]int, len(src))
		for i, p := range in.Perm {
			if p < 0 || p >= len(src) {
				return nil, fmt.Errorf("transpose perm %v out of range", in.Perm)
			}
			out[i] = src[p]
		}
		return out, nil

	case OpConcat:
		if len(in.Operands) == 0 {
			return nil, fmt.Errorf("concatenate needs operands")
		}
		out := append([]int(nil), in.Operands[0].Shape...)
		if in.Axis < 0 || in.Axis >= len(out) {
			return nil, fmt.Errorf("concatenate axis %d out of range for %v", in.Axis, out)
		}
		for _, op := range in.Operands[1:] {
			if len(op.Shape) != len(out) {
				return nil, fmt.Errorf("concatenate rank mismatch")
			}
			for d := range out {
				if d == in.Axis {
					continue
				}
				if op.Shape[d] != out[d] {
					return nil, fmt.Errorf("concatenate shape mismatch %v vs %v", op.Shape, out)
				}
			}
			out[in.Axis] += op.Shape[in.Axis]
		}
		return out, nil

	case OpPad:
		src, err := unary(in)
		if err != nil {
			return nil, err
		}
		if len(in.PadLow) != len(src) || len(in.PadHigh) != len(src) {
			return nil, fmt.Errorf("pad config rank mismatch for %v", src)
		}
		out := make([]int, len(src))
		for i := range src {
			if in.PadLow[i] < 0 || in.PadHigh[i] < 0 {
				return nil, fmt.Errorf("negative padding unsupported")
			}
			out[i] = in.PadLow[i] + src[i] + in.PadHigh[i]
		}
		return out, nil

	case OpSlice:
		src, err := unary(in)
		if err != nil {
			return nil, err
		}
		if len(in.Starts) != len(src) || len(in.Limits) != len(src) {
			return nil, fmt.Errorf("slice bounds rank mismatch for %v", src)
		}
		out := make([]int, len(src))
		for i := range src {
			if in.Starts[i] < 0 || in.Limits[i] > src[i] || in.Starts[i] > in.Limits[i] {
				return nil, fmt.Errorf("slice bounds [%v,%v) invalid for %v", in.Starts, in.Limits, src)
			}
			out[i] = in.Limits[i] - in.Starts[i]
		}
		return out, nil

	case OpDynamicSlice:
		src, err := unary(in)
		if err != nil {
			return nil, err
		}
		if len(in.Offsets) != len(src) || len(in.SliceSizes) != len(src) {
			return nil, fmt.Errorf("dynamic-slice config rank mismatch for %v", src)
		}
		for i, s := range in.SliceSizes {
			if s < 0 || s > src[i] {
				return nil, fmt.Errorf("dynamic-slice size %v too large for %v", in.SliceSizes, src)
			}
		}
		return in.SliceSizes, nil

	case OpDynamicUpdateSlice:
		if len(in.Operands) != 2 {
			return nil, fmt.Errorf("dynamic-update-slice needs 2 operands")
		}
		base := in.Operands[0].Shape
		upd := in.Operands[1].Shape
		if len(base) != len(upd) || len(in.Offsets) != len(base) {
			return nil, fmt.Errorf("dynamic-update-slice rank mismatch %v vs %v", base, upd)
		}
		for i := range base {
			if upd[i] > base[i] {
				return nil, fmt.Errorf("dynamic-update-slice update %v larger than base %v", upd, base)
			}
		}
		return base, nil

	case OpAllGather:
		src, err := unary(in)
		if err != nil {
			return nil, err
		}
		g, err := groupSize(in)
		if err != nil {
			return nil, err
		}
		if in.CollectiveAxis < 0 || in.CollectiveAxis >= len(src) {
			return nil, fmt.Errorf("all-gather axis %d out of range for %v", in.CollectiveAxis, src)
		}
		out := append([]int(nil), src...)
		out[in.CollectiveAxis] *= g
		return out, nil

	case OpReduceScatter:
		src, err := unary(in)
		if err != nil {
			return nil, err
		}
		g, err := groupSize(in)
		if err != nil {
			return nil, err
		}
		if in.CollectiveAxis < 0 || in.CollectiveAxis >= len(src) {
			return nil, fmt.Errorf("reduce-scatter axis %d out of range for %v", in.CollectiveAxis, src)
		}
		if src[in.CollectiveAxis]%g != 0 {
			return nil, fmt.Errorf("reduce-scatter dim %d of %v not divisible by group size %d", in.CollectiveAxis, src, g)
		}
		out := append([]int(nil), src...)
		out[in.CollectiveAxis] /= g
		return out, nil

	case OpAllReduce:
		if _, err := groupSize(in); err != nil {
			return nil, err
		}
		return unary(in)

	case OpAllToAll:
		src, err := unary(in)
		if err != nil {
			return nil, err
		}
		g, err := groupSize(in)
		if err != nil {
			return nil, err
		}
		split, concat := in.CollectiveAxis, in.Axis
		if split < 0 || split >= len(src) || concat < 0 || concat >= len(src) {
			return nil, fmt.Errorf("all-to-all axes (%d,%d) out of range for %v", split, concat, src)
		}
		if src[split]%g != 0 {
			return nil, fmt.Errorf("all-to-all split dim %d of %v not divisible by group size %d", split, src, g)
		}
		out := append([]int(nil), src...)
		out[split] /= g
		out[concat] *= g
		return out, nil

	case OpCollectivePermute, OpCollectivePermuteStart, OpCollectivePermuteDone:
		src, err := unary(in)
		if err != nil {
			return nil, err
		}
		if in.Op != OpCollectivePermuteDone {
			seenSrc, seenDst := map[int]bool{}, map[int]bool{}
			for _, p := range in.Pairs {
				if seenSrc[p.Source] {
					return nil, fmt.Errorf("collective-permute duplicate source %d", p.Source)
				}
				if seenDst[p.Target] {
					return nil, fmt.Errorf("collective-permute duplicate target %d", p.Target)
				}
				seenSrc[p.Source], seenDst[p.Target] = true, true
			}
		} else if in.Operands[0].Op != OpCollectivePermuteStart {
			return nil, fmt.Errorf("collective-permute-done operand must be a start, got %s", in.Operands[0].Op)
		}
		return src, nil

	case OpTuple:
		if len(in.Operands) == 0 {
			return nil, fmt.Errorf("tuple needs at least one operand")
		}
		return nil, nil // rank-0 placeholder

	case OpLoop:
		if in.Body == nil {
			return nil, fmt.Errorf("loop without body")
		}
		if in.TripCount < 1 {
			return nil, fmt.Errorf("loop trip count %d < 1", in.TripCount)
		}
		params := in.Body.Parameters()
		if len(params) != len(in.Operands) {
			return nil, fmt.Errorf("loop has %d operands but body has %d parameters", len(in.Operands), len(params))
		}
		root := in.Body.Root()
		if root == nil || root.Op != OpTuple {
			return nil, fmt.Errorf("loop body root must be a tuple of the carried values")
		}
		if len(root.Operands) != len(params) {
			return nil, fmt.Errorf("loop body tuple has %d values, want %d", len(root.Operands), len(params))
		}
		for i, p := range params {
			if !sameShape(p.Shape, in.Operands[i].Shape) {
				return nil, fmt.Errorf("loop operand %d shape %v mismatches body parameter %v", i, in.Operands[i].Shape, p.Shape)
			}
			if !sameShape(root.Operands[i].Shape, p.Shape) {
				return nil, fmt.Errorf("loop carried value %d changes shape %v -> %v", i, p.Shape, root.Operands[i].Shape)
			}
		}
		if in.ResultIndex < 0 || in.ResultIndex >= len(params) {
			return nil, fmt.Errorf("loop result index %d out of range", in.ResultIndex)
		}
		return params[in.ResultIndex].Shape, nil

	case OpFusion:
		if in.Body == nil {
			return nil, fmt.Errorf("fusion without body")
		}
		params := in.Body.Parameters()
		if len(params) != len(in.Operands) {
			return nil, fmt.Errorf("fusion has %d operands but body has %d parameters", len(in.Operands), len(params))
		}
		for i, p := range params {
			if !sameShape(p.Shape, in.Operands[i].Shape) {
				return nil, fmt.Errorf("fusion operand %d shape %v mismatches body parameter %v", i, in.Operands[i].Shape, p.Shape)
			}
		}
		root := in.Body.Root()
		if root == nil {
			return nil, fmt.Errorf("fusion body is empty")
		}
		return root.Shape, nil
	}
	return nil, fmt.Errorf("unsupported opcode %v", in.Op)
}

// einsumFacts is what an einsum's spec text and operand shapes
// determine: the parsed spec, the FLOP count and the matrix-unit tiling
// dimension (min of the matmul view's M, N, K). Every cost query of
// every scheduler and simulation reads them, so they are derived once,
// when a Computation builds or parses the instruction, and never
// written again: Clone shares the pointer, and concurrent readers of a
// shared program need no lock.
type einsumFacts struct {
	text   string // the EinsumSpec these were parsed from
	spec   tensor.EinsumSpec
	flops  int64
	minDim int
}

// einsumFacts returns the instruction's facts: the ones it carries
// when they still describe its spec text, freshly derived ones (not
// kept: reads never write) for an instruction no Computation built or
// whose operands were replaced by differently shaped ones.
func (in *Instruction) einsumFacts() (*einsumFacts, error) {
	if f := in.einsum; f != nil && f.text == in.EinsumSpec {
		return f, nil
	}
	return deriveEinsumFacts(in)
}

func deriveEinsumFacts(in *Instruction) (*einsumFacts, error) {
	if in.Op != OpEinsum || len(in.Operands) != 2 {
		return nil, fmt.Errorf("%s is not a two-operand einsum", in.Name)
	}
	spec, err := tensor.ParseEinsum(in.EinsumSpec)
	if err != nil {
		return nil, err
	}
	flops, m, n, k, err := spec.MatmulStats(in.Operands[0].Shape, in.Operands[1].Shape)
	if err != nil {
		return nil, err
	}
	return &einsumFacts{text: in.EinsumSpec, spec: spec, flops: flops, minDim: min(m, n, k)}, nil
}

// ParsedEinsum returns the einsum's parsed spec.
func (in *Instruction) ParsedEinsum() (tensor.EinsumSpec, error) {
	f, err := in.einsumFacts()
	if err != nil {
		return tensor.EinsumSpec{}, err
	}
	return f.spec, nil
}

// EinsumStats returns the einsum's FLOP count and its effective
// matrix-unit tiling dimension: viewing it as a (batched) M×K·K×N
// matmul, min(M, N, K). It panics on an instruction Verify would
// reject.
func (in *Instruction) EinsumStats() (flops int64, minDim int) {
	f, err := in.einsumFacts()
	if err != nil {
		panic(fmt.Sprintf("hlo: einsum %s stats: %v", in.Name, err))
	}
	return f.flops, f.minDim
}

func unary(in *Instruction) ([]int, error) {
	if len(in.Operands) != 1 {
		return nil, fmt.Errorf("%s needs exactly 1 operand, has %d", in.Op, len(in.Operands))
	}
	return in.Operands[0].Shape, nil
}

func groupSize(in *Instruction) (int, error) {
	if len(in.Groups) == 0 {
		return 0, fmt.Errorf("%s requires device groups", in.Op)
	}
	g := len(in.Groups[0])
	if g == 0 {
		return 0, fmt.Errorf("%s has an empty device group", in.Op)
	}
	seen := map[int]bool{}
	for _, grp := range in.Groups {
		if len(grp) != g {
			return 0, fmt.Errorf("%s has unevenly sized device groups", in.Op)
		}
		for _, d := range grp {
			if seen[d] {
				return 0, fmt.Errorf("%s lists device %d in two groups", in.Op, d)
			}
			seen[d] = true
		}
	}
	return g, nil
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func numElements(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
