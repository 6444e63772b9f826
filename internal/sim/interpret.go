// Package sim executes SPMD computations on a simulated accelerator
// cluster, in two complementary ways:
//
//   - Interpret runs the program functionally with real tensor values on
//     every device, giving ground truth to prove graph rewrites
//     semantically equivalent.
//   - Simulate runs the program through a discrete-event timing model of
//     the chips and their interconnect, giving the step time and
//     compute/communication breakdown the paper's evaluation reports.
//
// Both executors process the computation's scheduled instruction list in
// lockstep across devices, which is exactly how an SPMD program executes:
// the same sequence everywhere, with per-device divergence coming only
// from partition-dependent offsets and collective data movement.
package sim

import (
	"fmt"

	"overlap/internal/collective"
	"overlap/internal/hlo"
	"overlap/internal/tensor"
)

// Interpret executes the computation on numDevices devices and returns
// the root instruction's value on each device. args[i][d] supplies the
// value of parameter index i on device d; parameters may also be
// supplied replicated with a single tensor (len(args[i]) == 1).
func Interpret(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor) ([]*tensor.Tensor, error) {
	values, err := InterpretAll(c, numDevices, args)
	if err != nil {
		return nil, err
	}
	root := c.Root()
	if root == nil {
		return nil, fmt.Errorf("sim: empty computation %s", c.Name)
	}
	return values[root], nil
}

// InterpretAll executes the computation and returns every instruction's
// per-device value, letting callers inspect interior outputs (e.g. the
// operands of a result tuple).
func InterpretAll(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor) (map[*hlo.Instruction][]*tensor.Tensor, error) {
	if err := c.VerifyRing(numDevices); err != nil {
		return nil, err
	}
	if err := c.VerifyArgs(numDevices, args); err != nil {
		return nil, err
	}
	values := make(map[*hlo.Instruction][]*tensor.Tensor, c.NumInstructions())
	argFor := func(p *hlo.Instruction, dev int) *tensor.Tensor {
		set := args[p.ParamIndex]
		return set[dev%len(set)] // one replicated value, or one per device
	}
	if err := runSequence(c.Instructions(), values, numDevices, 0, argFor); err != nil {
		return nil, err
	}
	return values, nil
}

// runSequence interprets one instruction sequence: the top-level program
// (iter 0) or a loop body at a given iteration, with parameters resolved
// by paramFor.
func runSequence(instrs []*hlo.Instruction, values map[*hlo.Instruction][]*tensor.Tensor, numDevices, iter int, paramFor func(p *hlo.Instruction, dev int) *tensor.Tensor) error {
	for _, in := range instrs {
		perDevice := make([]*tensor.Tensor, numDevices)
		switch in.Op {
		case hlo.OpParameter:
			for d := 0; d < numDevices; d++ {
				perDevice[d] = paramFor(in, d)
			}

		case hlo.OpConstant:
			for d := 0; d < numDevices; d++ {
				perDevice[d] = in.Literal
			}

		case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll:
			evalGroupCollective(in, values[in.Operands[0]], perDevice)

		case hlo.OpCollectivePermute:
			src := values[in.Operands[0]]
			out := collective.Permute(src, pairSlice(in.Pairs))
			copy(perDevice, out)

		case hlo.OpCollectivePermuteStart:
			// The start carries its operand; the matching done performs
			// the movement.
			copy(perDevice, values[in.Operands[0]])

		case hlo.OpCollectivePermuteDone:
			start := in.Operands[0]
			src := values[start.Operands[0]]
			out := collective.Permute(src, pairSlice(in.Pairs))
			copy(perDevice, out)

		case hlo.OpLoop:
			res, err := runLoop(in, values, numDevices)
			if err != nil {
				return err
			}
			perDevice = res

		default:
			for d := 0; d < numDevices; d++ {
				ops := make([]*tensor.Tensor, len(in.Operands))
				for i, op := range in.Operands {
					ops[i] = values[op][d]
				}
				v, err := EvalLocal(in, ops, d, iter)
				if err != nil {
					return err
				}
				perDevice[d] = v
			}
		}
		values[in] = perDevice
	}
	return nil
}

// runLoop interprets a counted loop: the body runs TripCount times with
// the carried per-device values threaded from the root tuple back into
// the parameters, and the iteration index feeding the body's dynamic
// offsets. (hlo.VerifyRing has rejected nested loops: the decomposition
// never emits them.)
func runLoop(loop *hlo.Instruction, values map[*hlo.Instruction][]*tensor.Tensor, numDevices int) ([]*tensor.Tensor, error) {
	carried := make([][]*tensor.Tensor, len(loop.Operands))
	for i, op := range loop.Operands {
		carried[i] = values[op]
	}
	bodyInstrs := loop.Body.Instructions()
	root := loop.Body.Root()
	for it := 0; it < loop.TripCount; it++ {
		bodyValues := make(map[*hlo.Instruction][]*tensor.Tensor, len(bodyInstrs))
		resolve := func(p *hlo.Instruction, dev int) *tensor.Tensor { return carried[p.ParamIndex][dev] }
		if err := runSequence(bodyInstrs, bodyValues, numDevices, it, resolve); err != nil {
			return nil, fmt.Errorf("sim: loop %s iteration %d: %w", loop.Name, it, err)
		}
		for i, op := range root.Operands {
			carried[i] = bodyValues[op]
		}
	}
	return carried[loop.ResultIndex], nil
}

// evalGroupCollective evaluates a group collective group by group;
// hlo.VerifyRing has every device in exactly one.
func evalGroupCollective(in *hlo.Instruction, src, out []*tensor.Tensor) {
	for _, group := range in.Groups {
		inputs := make([]*tensor.Tensor, len(group))
		for i, dev := range group {
			inputs[i] = src[dev]
		}
		switch in.Op {
		case hlo.OpAllGather:
			res := collective.AllGather(inputs, in.CollectiveAxis)
			for _, dev := range group {
				out[dev] = res
			}
		case hlo.OpReduceScatter:
			shards := collective.ReduceScatter(inputs, in.CollectiveAxis)
			for i, dev := range group {
				out[dev] = shards[i]
			}
		case hlo.OpAllReduce:
			res := collective.AllReduce(inputs)
			for _, dev := range group {
				out[dev] = res
			}
		case hlo.OpAllToAll:
			res := collective.AllToAll(inputs, in.CollectiveAxis, in.Axis)
			for i, dev := range group {
				out[dev] = res[i]
			}
		}
	}
}

// EvalLocal evaluates a device-local instruction on one device's
// operand values and returns a fresh result: EvalLocalInto with no
// destination.
func EvalLocal(in *hlo.Instruction, ops []*tensor.Tensor, pid, iter int) (*tensor.Tensor, error) {
	return EvalLocalInto(in, nil, ops, pid, iter)
}

// EvalLocalInto evaluates a device-local instruction on one device's
// operand values. pid and iter resolve partition- and iteration-
// dependent offsets. It is the one dispatch from opcode to kernel: the
// lockstep interpreter calls it with a nil dst and gets value semantics
// — a fresh result, operands untouched — and the concurrent runtime
// (internal/runtime) passes the buffer its memory plan assigned, so the
// two execute the same kernel on the same bytes and agree bit for bit
// by construction. An einsum executes with the split-K factor its
// instruction carries.
//
// A non-nil dst carries the result shape (the same element count for a
// Reshape, whose header is rewritten); its contents are ignored and it
// is returned. It may be one of the operands only where the kernel runs
// in place (Step.Overwrites names the positions): either operand of an
// Add or Max, the base of a DynamicUpdateSlice, the operand of a Copy
// or Reshape. A
// Constant (met inside fusion bodies) is its literal and a Tuple a fresh
// placeholder; neither uses dst.
func EvalLocalInto(in *hlo.Instruction, dst *tensor.Tensor, ops []*tensor.Tensor, pid, iter int) (*tensor.Tensor, error) {
	switch in.Op {
	case hlo.OpConstant:
		return in.Literal, nil
	case hlo.OpZero:
		return tensor.Zero(dst, in.Shape...), nil
	case hlo.OpTuple:
		return tensor.New(), nil // rank-0 placeholder; outputs are read by name
	case hlo.OpEinsum:
		return tensor.EinsumIntoSplitK(dst, in.SplitK, in.EinsumSpec, ops[0], ops[1]), nil
	case hlo.OpAdd:
		return tensor.AddInto(dst, ops[0], ops[1]), nil
	case hlo.OpMax:
		return tensor.MaxInto(dst, ops[0], ops[1]), nil
	case hlo.OpCopy:
		return tensor.CopyInto(dst, ops[0]), nil
	case hlo.OpReshape:
		return tensor.ReshapeInto(dst, ops[0], in.Shape...), nil
	case hlo.OpTranspose:
		return tensor.TransposeInto(dst, ops[0], in.Perm...), nil
	case hlo.OpConcat:
		return tensor.ConcatInto(dst, in.Axis, ops...), nil
	case hlo.OpPad:
		return tensor.PadInto(dst, ops[0], in.PadLow, in.PadHigh, in.PadValue), nil
	case hlo.OpSlice:
		return tensor.SliceInto(dst, ops[0], in.Starts, in.Limits), nil
	case hlo.OpDynamicSlice:
		var buf [maxOffsetRank]int
		return tensor.DynamicSliceInto(dst, ops[0], evalOffsets(buf[:0], in.Offsets, pid, iter), in.SliceSizes), nil
	case hlo.OpDynamicUpdateSlice:
		var buf [maxOffsetRank]int
		return tensor.DynamicUpdateSliceInto(dst, ops[0], ops[1], evalOffsets(buf[:0], in.Offsets, pid, iter)), nil
	case hlo.OpFusion:
		return evalFusion(in, dst, ops, pid, iter)
	}
	return nil, fmt.Errorf("sim: cannot evaluate %s locally", in.Op)
}

var (
	overwritesFirst  = []int{0}
	overwritesEither = []int{0, 1}
)

// Step is one kernel evaluation of a fusion body. Both executors run a
// fusion as its steps: the interpreter with fresh results, the runtime
// flattened into its tape with planned destinations.
type Step struct {
	// In is the body instruction evaluated; it supplies the opcode and
	// attributes. For an accumulation step it is the Add.
	In *hlo.Instruction

	// Args index the values read: k names the fusion's operand k, and
	// len(operands)+j the result of step j.
	Args []int

	// Fused, when set, makes this an accumulation step — the shape
	// FuseAccumulation produces for the decomposed ReduceScatter chain.
	// An einsum whose only reader is an Add of the same body is never
	// materialized: the Add evaluates as tensor.EinsumAddInto, the
	// contracted terms landing directly on the accumulator. Args are
	// then the accumulator followed by Fused's two operands — or, when
	// both sides of the Add are such einsums, Base's two operands (Base
	// is computed as the accumulator) followed by Fused's.
	Fused, Base *hlo.Instruction
}

// Overwrites lists the argument positions whose tensor EvalInto accepts
// as the destination: element-wise ops fold into either operand, a
// DynamicUpdateSlice writes its window into the base, a Copy or Reshape
// of a value nobody else reads is that value, and an accumulation step
// folds into its accumulator unless it computes the accumulator itself.
func (s *Step) Overwrites() []int {
	switch {
	case s.Fused != nil && s.Base != nil:
		return nil
	case s.Fused != nil:
		return overwritesFirst
	}
	switch s.In.Op {
	case hlo.OpAdd, hlo.OpMax:
		return overwritesEither
	case hlo.OpCopy, hlo.OpReshape, hlo.OpDynamicUpdateSlice:
		return overwritesFirst
	}
	return nil
}

// EvalInto evaluates the step on its argument values, under
// EvalLocalInto's destination contract.
func (s *Step) EvalInto(dst *tensor.Tensor, args []*tensor.Tensor, pid, iter int) (*tensor.Tensor, error) {
	if s.Fused == nil {
		return EvalLocalInto(s.In, dst, args, pid, iter)
	}
	var acc *tensor.Tensor
	if s.Base != nil {
		acc = tensor.EinsumIntoSplitK(dst, s.Base.SplitK, s.Base.EinsumSpec, args[0], args[1])
		args = args[2:]
	} else {
		acc = tensor.CopyInto(dst, args[0])
		args = args[1:]
	}
	return tensor.EinsumAddIntoSplitK(acc, s.Fused.EinsumSpec, args[0], args[1], s.Fused.SplitK), nil
}

// FusionSteps lowers a fusion instruction's body to its evaluation
// steps and the index (in Step.Args numbering) of the fusion's result.
// Fusion bodies are device-local by construction (the fusion pass never
// fuses collectives); parameters and deferred einsums produce no step.
func FusionSteps(f *hlo.Instruction) (steps []Step, result int, err error) {
	body := f.Body
	root := body.Root()
	instrs := body.Instructions()
	steps = make([]Step, 0, len(instrs))
	// valueOf resolves a body instruction to its value index. Bodies
	// are a handful of instructions, so a scan beats building a map on
	// every interpreted call.
	valueOf := func(in *hlo.Instruction) int {
		if in.Op == hlo.OpParameter {
			return in.ParamIndex
		}
		for j := range steps {
			if steps[j].In == in {
				return len(f.Operands) + j
			}
		}
		return -1
	}
	for _, in := range instrs {
		if in.Op == hlo.OpParameter {
			if in.ParamIndex < 0 || in.ParamIndex >= len(f.Operands) {
				return nil, 0, fmt.Errorf("sim: fusion %s: parameter %s index %d out of range", f.Name, in.Name, in.ParamIndex)
			}
			continue
		}
		if deferredEinsum(in, root) {
			continue // folded into its consuming Add below
		}
		s := Step{In: in}
		reads := in.Operands
		if in.Op == hlo.OpAdd {
			a, b := in.Operands[0], in.Operands[1]
			switch da, db := deferredEinsum(a, root), deferredEinsum(b, root); {
			case da && db:
				s.Base, s.Fused = a, b
				reads = []*hlo.Instruction{a.Operands[0], a.Operands[1], b.Operands[0], b.Operands[1]}
			case da:
				s.Fused = a
				reads = []*hlo.Instruction{b, a.Operands[0], a.Operands[1]}
			case db:
				s.Fused = b
				reads = []*hlo.Instruction{a, b.Operands[0], b.Operands[1]}
			}
		}
		s.Args = make([]int, len(reads))
		for i, op := range reads {
			if s.Args[i] = valueOf(op); s.Args[i] < 0 {
				return nil, 0, fmt.Errorf("sim: fusion %s: %s reads %s before it is computed", f.Name, in.Name, op.Name)
			}
		}
		steps = append(steps, s)
	}
	if result = valueOf(root); result < 0 {
		return nil, 0, fmt.Errorf("sim: fusion %s has no result", f.Name)
	}
	return steps, result, nil
}

// deferredEinsum reports whether a body einsum is evaluated fused into
// its consumer: it is read by exactly one instruction, that instruction
// is an Add of the same body with two distinct operands, and it is not
// the body's result.
func deferredEinsum(in, root *hlo.Instruction) bool {
	if in.Op != hlo.OpEinsum || in == root || in.NumUsers() != 1 {
		return false
	}
	u := in.Users()[0]
	return u.Op == hlo.OpAdd && u.Operands[0] != u.Operands[1]
}

// evalFusion interprets a fusion on one device: its steps in order,
// over a value list seeded with the operands. Only the step computing
// the result may use dst.
func evalFusion(f *hlo.Instruction, dst *tensor.Tensor, ops []*tensor.Tensor, pid, iter int) (*tensor.Tensor, error) {
	steps, result, err := FusionSteps(f)
	if err != nil {
		return nil, err
	}
	vals := make([]*tensor.Tensor, len(ops), len(ops)+len(steps))
	copy(vals, ops)
	var args []*tensor.Tensor
	for j := range steps {
		s := &steps[j]
		args = args[:0]
		for _, a := range s.Args {
			args = append(args, vals[a])
		}
		var d *tensor.Tensor
		if len(ops)+j == result {
			d = dst
		}
		v, err := s.EvalInto(d, args, pid, iter)
		if err != nil {
			return nil, fmt.Errorf("sim: fusion %s: %w", f.Name, err)
		}
		vals = append(vals, v)
	}
	return vals[result], nil
}

// maxOffsetRank sizes the stack scratch dynamic offsets evaluate into;
// a higher-rank instruction (none exist) spills to the heap.
const maxOffsetRank = 8

func evalOffsets(buf []int, offsets []hlo.DynOffset, pid, iter int) []int {
	for _, o := range offsets {
		buf = append(buf, o.EvalIter(pid, iter))
	}
	return buf
}

func pairSlice(pairs []hlo.SourceTargetPair) [][2]int {
	out := make([][2]int, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int{p.Source, p.Target}
	}
	return out
}
