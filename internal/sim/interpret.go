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
	if numDevices <= 0 {
		return nil, fmt.Errorf("sim: need at least one device")
	}
	params := c.Parameters()
	if len(args) != len(params) {
		return nil, fmt.Errorf("sim: computation %s has %d parameters, got %d arguments", c.Name, len(params), len(args))
	}
	values := make(map[*hlo.Instruction][]*tensor.Tensor, c.NumInstructions())

	argFor := func(p *hlo.Instruction, dev int) (*tensor.Tensor, error) {
		set := args[p.ParamIndex]
		var v *tensor.Tensor
		switch len(set) {
		case 1:
			v = set[0]
		case numDevices:
			v = set[dev]
		default:
			return nil, fmt.Errorf("sim: parameter %d has %d values, want 1 or %d", p.ParamIndex, len(set), numDevices)
		}
		if !sameShape(v.Shape(), p.Shape) {
			return nil, fmt.Errorf("sim: parameter %d value shape %v, declared %v", p.ParamIndex, v.Shape(), p.Shape)
		}
		return v, nil
	}

	if err := runSequence(c.Instructions(), values, numDevices, 0, argFor); err != nil {
		return nil, err
	}
	return values, nil
}

// runSequence interprets one instruction sequence: the top-level program
// (iter 0) or a loop body at a given iteration, with parameters resolved
// by paramFor.
func runSequence(instrs []*hlo.Instruction, values map[*hlo.Instruction][]*tensor.Tensor, numDevices, iter int, paramFor func(p *hlo.Instruction, dev int) (*tensor.Tensor, error)) error {
	for _, in := range instrs {
		perDevice := make([]*tensor.Tensor, numDevices)
		switch in.Op {
		case hlo.OpParameter:
			for d := 0; d < numDevices; d++ {
				v, err := paramFor(in, d)
				if err != nil {
					return err
				}
				perDevice[d] = v
			}

		case hlo.OpConstant:
			for d := 0; d < numDevices; d++ {
				perDevice[d] = in.Literal
			}

		case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll:
			src := values[in.Operands[0]]
			if err := evalGroupCollective(in, src, perDevice); err != nil {
				return err
			}

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
// offsets. Nested loops are rejected (the decomposition never emits
// them).
func runLoop(loop *hlo.Instruction, values map[*hlo.Instruction][]*tensor.Tensor, numDevices int) ([]*tensor.Tensor, error) {
	carried := make([][]*tensor.Tensor, len(loop.Operands))
	for i, op := range loop.Operands {
		carried[i] = values[op]
	}
	bodyInstrs := loop.Body.Instructions()
	for _, in := range bodyInstrs {
		if in.Op == hlo.OpLoop {
			return nil, fmt.Errorf("sim: nested loop %s unsupported", in.Name)
		}
	}
	root := loop.Body.Root()
	for it := 0; it < loop.TripCount; it++ {
		bodyValues := make(map[*hlo.Instruction][]*tensor.Tensor, len(bodyInstrs))
		resolve := func(p *hlo.Instruction, dev int) (*tensor.Tensor, error) {
			return carried[p.ParamIndex][dev], nil
		}
		if err := runSequence(bodyInstrs, bodyValues, numDevices, it, resolve); err != nil {
			return nil, fmt.Errorf("sim: loop %s iteration %d: %w", loop.Name, it, err)
		}
		for i, op := range root.Operands {
			carried[i] = bodyValues[op]
		}
	}
	return carried[loop.ResultIndex], nil
}

func evalGroupCollective(in *hlo.Instruction, src, out []*tensor.Tensor) error {
	for _, group := range in.Groups {
		inputs := make([]*tensor.Tensor, len(group))
		for i, dev := range group {
			if dev < 0 || dev >= len(src) {
				return fmt.Errorf("sim: %s group device %d out of range", in.Name, dev)
			}
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
	for d, v := range out {
		if v == nil {
			return fmt.Errorf("sim: device %d does not participate in %s", d, in.Name)
		}
	}
	return nil
}

// EvalLocal evaluates a device-local instruction (hlo.OpCode.
// IsDeviceLocal) on one device's operand values. pid and iter resolve
// partition- and iteration-dependent offsets. It is the shared execution
// hook: the lockstep interpreter and the concurrent goroutine runtime
// (internal/runtime) both evaluate local instructions through it, which
// is what makes their results bit-identical by construction. An einsum
// executes with the split-K factor its instruction carries.
func EvalLocal(in *hlo.Instruction, ops []*tensor.Tensor, pid, iter int) (*tensor.Tensor, error) {
	switch in.Op {
	case hlo.OpZero:
		return tensor.New(in.Shape...), nil
	case hlo.OpTuple:
		return tensor.New(), nil // rank-0 placeholder; outputs are read by name
	case hlo.OpEinsum:
		return tensor.EinsumSplitK(in.SplitK, in.EinsumSpec, ops[0], ops[1]), nil
	case hlo.OpAdd:
		return tensor.Add(ops[0], ops[1]), nil
	case hlo.OpMax:
		return tensor.Max(ops[0], ops[1]), nil
	case hlo.OpCopy:
		return ops[0].Clone(), nil
	case hlo.OpReshape:
		return tensor.Reshape(ops[0], in.Shape...), nil
	case hlo.OpTranspose:
		return tensor.Transpose(ops[0], in.Perm...), nil
	case hlo.OpConcat:
		return tensor.Concat(in.Axis, ops...), nil
	case hlo.OpPad:
		return tensor.Pad(ops[0], in.PadLow, in.PadHigh, in.PadValue), nil
	case hlo.OpSlice:
		return tensor.Slice(ops[0], in.Starts, in.Limits), nil
	case hlo.OpDynamicSlice:
		return tensor.DynamicSlice(ops[0], evalOffsets(in.Offsets, pid, iter), in.SliceSizes), nil
	case hlo.OpDynamicUpdateSlice:
		return tensor.DynamicUpdateSlice(ops[0], ops[1], evalOffsets(in.Offsets, pid, iter)), nil
	case hlo.OpFusion:
		return evalFusion(in, ops, pid, iter)
	}
	return nil, fmt.Errorf("sim: cannot evaluate %s locally", in.Op)
}

// evalFusion interprets a fusion body on one device. Fusion bodies are
// device-local by construction (the fusion pass never fuses collectives).
//
// Einsums whose only consumer is an Add in the same body — the shape
// FuseAccumulation produces for the decomposed ReduceScatter chain —
// are never materialized: the Add evaluates them with
// tensor.EinsumAddInto, accumulating the contracted terms directly on
// the accumulator instead of allocating a partial-result temporary and
// summing it elementwise. Both execution engines (the lockstep
// interpreter and the goroutine runtime) share this path via EvalLocal,
// so their bit-identical cross-check is unaffected.
func evalFusion(f *hlo.Instruction, ops []*tensor.Tensor, pid, iter int) (*tensor.Tensor, error) {
	deferred := fusionDeferredEinsums(f.Body)
	vals := make(map[*hlo.Instruction]*tensor.Tensor, f.Body.NumInstructions())
	for _, in := range f.Body.Instructions() {
		if in.Op == hlo.OpParameter {
			vals[in] = ops[in.ParamIndex]
			continue
		}
		if in.Op == hlo.OpConstant {
			vals[in] = in.Literal
			continue
		}
		if deferred[in] {
			continue // materialized fused into its consuming Add below
		}
		if in.Op == hlo.OpAdd && (deferred[in.Operands[0]] || deferred[in.Operands[1]]) {
			vals[in] = evalFusedAdd(f.Body, in, deferred, vals)
			continue
		}
		inner := make([]*tensor.Tensor, len(in.Operands))
		for i, op := range in.Operands {
			inner[i] = vals[op]
		}
		v, err := EvalLocal(in, inner, pid, iter)
		if err != nil {
			return nil, fmt.Errorf("sim: fusion %s: %w", f.Name, err)
		}
		vals[in] = v
	}
	return vals[f.Body.Root()], nil
}

// fusionDeferredEinsums returns the body einsums eligible for fused
// accumulation: consumed by exactly one instruction, that instruction
// is an Add in the same body with two distinct operands, and the einsum
// is not the body root. Returns nil (cheap) when the body has none.
func fusionDeferredEinsums(body *hlo.Computation) map[*hlo.Instruction]bool {
	var deferred map[*hlo.Instruction]bool
	root := body.Root()
	for _, in := range body.Instructions() {
		if in.Op != hlo.OpEinsum || in == root || in.NumUsers() != 1 {
			continue
		}
		u := in.Users()[0]
		if u.Op != hlo.OpAdd || u.Operands[0] == u.Operands[1] {
			continue
		}
		if deferred == nil {
			deferred = make(map[*hlo.Instruction]bool)
		}
		deferred[in] = true
	}
	return deferred
}

// evalFusedAdd evaluates an Add with at least one deferred-einsum
// operand. The non-einsum operand becomes the accumulator, mutated in
// place only when no other reader can observe it (a body-local value
// with a single user that is not the body root); parameter and constant
// values are cloned first, since they alias caller-owned tensors.
func evalFusedAdd(body *hlo.Computation, add *hlo.Instruction, deferred map[*hlo.Instruction]bool, vals map[*hlo.Instruction]*tensor.Tensor) *tensor.Tensor {
	a, b := add.Operands[0], add.Operands[1]
	var acc *tensor.Tensor
	var fuse *hlo.Instruction
	if deferred[a] && deferred[b] {
		// Both operands are sole-use einsums: materialize the left one
		// as the accumulator base and fuse the right onto it.
		acc = tensor.EinsumSplitK(a.SplitK, a.EinsumSpec, vals[a.Operands[0]], vals[a.Operands[1]])
		fuse = b
	} else {
		e, o := a, b
		if !deferred[e] {
			e, o = b, a
		}
		acc, fuse = vals[o], e
		if o.Op == hlo.OpParameter || o.Op == hlo.OpConstant || o.NumUsers() > 1 || o == body.Root() {
			acc = acc.Clone()
		}
	}
	return tensor.EinsumAddIntoSplitK(acc, fuse.EinsumSpec, vals[fuse.Operands[0]], vals[fuse.Operands[1]], fuse.SplitK)
}

func evalOffsets(offsets []hlo.DynOffset, pid, iter int) []int {
	out := make([]int, len(offsets))
	for i, o := range offsets {
		out[i] = o.EvalIter(pid, iter)
	}
	return out
}

func pairSlice(pairs []hlo.SourceTargetPair) [][2]int {
	out := make([][2]int, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int{p.Source, p.Target}
	}
	return out
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
