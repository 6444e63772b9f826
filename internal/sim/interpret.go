// Package sim executes SPMD computations on a simulated accelerator
// cluster, in two complementary ways:
//
//   - Interpret runs the program functionally with real tensor values on
//     every device, giving ground truth to prove graph rewrites
//     semantically equivalent.
//   - Simulate prices the program on the machine model, giving the step
//     time and compute/communication breakdown the paper's evaluation
//     reports.
//
// Both process the computation's scheduled instruction list in lockstep
// across devices, which is exactly how an SPMD program executes: the
// same sequence everywhere, with per-device divergence coming only from
// partition-dependent offsets and collective data movement.
//
// Time has one home here: the timing pass (timing.go). NewSchedule
// lowers a verified program once into a flat timing schedule, and
// Clocks.Time walks it over a cost table — the seconds each local op
// took on each device — with the modeled wire at a scale and optional
// delays, and returns the Breakdown and the spans. Simulate runs it over
// the machine model's costs; the runtime (internal/runtime) runs it over
// the costs its devices measured, after they join. So a simulated step
// and an executed one are the same function of different costs.
package sim

import (
	"fmt"
	"slices"

	"overlap/internal/collective"
	"overlap/internal/hlo"
	"overlap/internal/tensor"
)

// Interpret executes the computation on numDevices devices and returns
// the root instruction's value on each device. args[i][d] supplies the
// value of parameter index i on device d; parameters may also be
// supplied replicated with a single tensor (len(args[i]) == 1). The
// returned tensors are the caller's.
func Interpret(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor) ([]*tensor.Tensor, error) {
	root := c.Root()
	if root == nil {
		return nil, fmt.Errorf("sim: empty computation %s", c.Name)
	}
	var out []*tensor.Tensor
	err := interpret(c, numDevices, args, func(in *hlo.Instruction) bool { return in == root },
		func(ip *interp, values map[*hlo.Instruction][]*tensor.Tensor) error {
			out = ip.own(values[root])
			return nil
		})
	return out, err
}

// InterpretAll executes the computation and returns every top-level
// instruction's per-device value, letting callers inspect interior
// values (a loss the root does not carry, the operand of a copy). It
// keeps all of them alive at once; a caller that needs only to compare
// the outputs calls CheckOutputs.
func InterpretAll(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor) (map[*hlo.Instruction][]*tensor.Tensor, error) {
	var all map[*hlo.Instruction][]*tensor.Tensor
	err := interpret(c, numDevices, args, func(*hlo.Instruction) bool { return true },
		func(ip *interp, values map[*hlo.Instruction][]*tensor.Tensor) error {
			for _, v := range values {
				ip.own(v)
			}
			all = values
			return nil
		})
	return all, err
}

// CheckOutputs executes the computation and calls compare with each
// output's per-device values — the root's or, under a tuple root, each
// of its operands' — while the interpretation still holds them. Every
// other value is released after its last reader, as Interpret releases
// it. The values may be buffers the interpretation borrowed from the
// tensor package's free lists, which go back there when CheckOutputs
// returns, so compare must not keep them. The first error compare
// returns ends the check and is CheckOutputs' error.
func CheckOutputs(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, compare func(out *hlo.Instruction, want []*tensor.Tensor) error) error {
	root := c.Root()
	if root == nil {
		return fmt.Errorf("sim: empty computation %s", c.Name)
	}
	outs := []*hlo.Instruction{root}
	if root.Op == hlo.OpTuple {
		outs = root.Operands
	}
	return interpret(c, numDevices, args, func(in *hlo.Instruction) bool { return slices.Contains(outs, in) },
		func(_ *interp, values map[*hlo.Instruction][]*tensor.Tensor) error {
			for _, out := range outs {
				if err := compare(out, values[out]); err != nil {
					return err
				}
			}
			return nil
		})
}

// An interpretation holds what is live and nothing more. A value dies
// after the last instruction that reads it (hlo.Computation.LastUses)
// unless the caller keeps it, and its buffers go onto the
// interpretation's own free lists, exact-size like the tensor
// package's, for a later result of the same size to take. Values alias
// — a parameter is its argument, a start its operand, a loop's carried
// values its operands and then its body's results, and the members of
// an AllGather or AllReduce group share one result — so buffers are
// counted, not values: refs holds, for every buffer the interpretation
// drew and still holds, how many live values name it, and the buffer is
// free when that reaches zero. Arguments and constants are never
// counted, so never reused.
//
// A result with nothing free of its size on those lists borrows from
// the tensor package's, the runtime's arena (tensor.TakePooled), and is
// made new only when that list is empty too. The interpretation hands
// back exactly what it borrowed, when it ends, and nothing else: the
// new buffers die with it, and a value returned to a caller is never a
// borrowed buffer (own copies one out). Handing every freed buffer to
// the arena instead would keep the oracle's whole working set on lists
// sized for the runtime's, after every check.
//
// No kernel is handed a buffer a live value names: every result gets a
// buffer nothing else holds. That keeps the value semantics the bitwise
// contract needs from its oracle; taking a dying operand over in place
// is the runtime's buffer plan, which the interpreter is there to check
// and so does not share. A fusion runs as its steps (FusionSteps,
// lowered once per interpretation), each into a buffer of its own that
// is freed when the fusion finishes.
type interp struct {
	n        int
	refs     map[*tensor.Tensor]int
	free     map[int][]*tensor.Tensor // by element count
	borrowed []*tensor.Tensor
	fusions  map[*hlo.Instruction]fusion
	copies   map[*tensor.Tensor]*tensor.Tensor // by borrowed buffer
}

// fusion is a fusion instruction lowered to its steps.
type fusion struct {
	steps  []Step
	result int
}

// draw takes a buffer for a result that refs live values will name: a
// free one of its size, else one borrowed from the arena, else a new
// one.
func (ip *interp) draw(shape []int, refs int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	var t *tensor.Tensor
	if l := ip.free[n]; len(l) > 0 {
		t, ip.free[n] = l[len(l)-1], l[:len(l)-1]
		tensor.ReshapeInto(t, t, shape...)
	} else if t = tensor.TakePooled(shape...); t != nil {
		ip.borrowed = append(ip.borrowed, t)
	} else {
		t = tensor.New(shape...)
	}
	ip.refs[t] = refs
	return t
}

// hold counts one more live value naming each drawn buffer among ts.
func (ip *interp) hold(ts ...*tensor.Tensor) {
	for _, t := range ts {
		if k, ok := ip.refs[t]; ok {
			ip.refs[t] = k + 1
		}
	}
}

// drop counts one live value fewer naming each drawn buffer among ts,
// and frees a buffer no live value names any more.
func (ip *interp) drop(ts ...*tensor.Tensor) {
	for _, t := range ts {
		switch k, ok := ip.refs[t]; {
		case !ok:
		case k > 1:
			ip.refs[t] = k - 1
		default:
			delete(ip.refs, t)
			if poisonReleased {
				tensor.Poison(t)
			}
			n := t.NumElements()
			ip.free[n] = append(ip.free[n], t)
		}
	}
}

// own replaces each borrowed buffer among the live values vals with a
// copy of it, one copy per buffer, so that what a caller keeps outlives
// the hand-back; it returns vals.
func (ip *interp) own(vals []*tensor.Tensor) []*tensor.Tensor {
	for d, t := range vals {
		if _, drawn := ip.refs[t]; !drawn || !t.Pooled() {
			continue // an argument, a constant or a new buffer
		}
		c, ok := ip.copies[t]
		if !ok {
			if ip.copies == nil {
				ip.copies = map[*tensor.Tensor]*tensor.Tensor{}
			}
			c = t.Clone()
			ip.copies[t] = c
		}
		vals[d] = c
	}
	return vals
}

// handBack returns every buffer the interpretation borrowed to the
// arena's free lists.
func (ip *interp) handBack() {
	for _, t := range ip.borrowed {
		if poisonReleased {
			tensor.Poison(t)
		}
		tensor.Release(t)
	}
	ip.borrowed = nil
}

// poisonReleased makes drop and handBack overwrite a buffer with NaN as
// it goes onto a free list, so a value read after the release its
// liveness promised corrupts a checked result instead of passing
// unnoticed. Set only by tests, through PoisonReleased.
var poisonReleased bool

// PoisonReleased turns the use-after-release canary on for the calling
// test and returns the function that turns it off again: while on,
// every buffer the interpreter frees or hands back to the arena is
// overwritten with NaN before a later result can take it. It is a test
// hook outside export_test.go because the runtime's tests turn it on
// beside the runtime's own canary.
func PoisonReleased() (restore func()) {
	poisonReleased = true
	return func() { poisonReleased = false }
}

// interpret checks the program against the ring and the arguments
// against the program, runs it, hands the top-level values keep selects
// to use, and then hands back every buffer it borrowed: a value use
// keeps past the call must be one ip.own returned.
func interpret(c *hlo.Computation, n int, args [][]*tensor.Tensor, keep func(*hlo.Instruction) bool, use func(*interp, map[*hlo.Instruction][]*tensor.Tensor) error) error {
	if err := c.VerifyRing(n); err != nil {
		return err
	}
	if err := c.VerifyArgs(n, args); err != nil {
		return err
	}
	ip := &interp{
		n:       n,
		refs:    map[*tensor.Tensor]int{},
		free:    map[int][]*tensor.Tensor{},
		fusions: map[*hlo.Instruction]fusion{},
	}
	defer ip.handBack()
	values := make(map[*hlo.Instruction][]*tensor.Tensor, c.NumInstructions())
	argFor := func(p *hlo.Instruction, dev int) *tensor.Tensor {
		set := args[p.ParamIndex]
		return set[dev%len(set)] // one replicated value, or one per device
	}
	if err := ip.sequence(newSeq(c, keep), values, 0, argFor); err != nil {
		return err
	}
	return use(ip, values)
}

// seq is an instruction sequence with its deaths: dies[i] lists the
// values nothing reads after position i that the caller does not keep.
type seq struct {
	instrs []*hlo.Instruction
	dies   [][]*hlo.Instruction
}

func newSeq(c *hlo.Computation, keep func(*hlo.Instruction) bool) seq {
	s := seq{instrs: c.Instructions()}
	s.dies = make([][]*hlo.Instruction, len(s.instrs))
	for i, last := range c.LastUses() {
		if in := s.instrs[i]; !keep(in) {
			s.dies[last] = append(s.dies[last], in)
		}
	}
	return s
}

// sequence interprets one instruction sequence: the top-level program
// (iter 0) or a loop body at a given iteration, with parameters
// resolved by paramFor. A value leaves values right after its last
// reader, so a read past it finds nothing rather than a recycled
// buffer.
func (ip *interp) sequence(s seq, values map[*hlo.Instruction][]*tensor.Tensor, iter int, paramFor func(p *hlo.Instruction, dev int) *tensor.Tensor) error {
	for i, in := range s.instrs {
		v, err := ip.eval(in, values, iter, paramFor)
		if err != nil {
			return err
		}
		values[in] = v
		for _, dead := range s.dies[i] {
			ip.drop(values[dead]...)
			delete(values, dead)
		}
	}
	return nil
}

// eval computes one instruction's per-device value, counting it as one
// more live value naming each of its buffers.
func (ip *interp) eval(in *hlo.Instruction, values map[*hlo.Instruction][]*tensor.Tensor, iter int, paramFor func(p *hlo.Instruction, dev int) *tensor.Tensor) ([]*tensor.Tensor, error) {
	out := make([]*tensor.Tensor, ip.n)
	switch in.Op {
	case hlo.OpParameter:
		for d := range out {
			out[d] = paramFor(in, d)
		}
		ip.hold(out...)

	case hlo.OpConstant:
		for d := range out {
			out[d] = in.Literal
		}

	case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll:
		ip.groupCollective(in, values[in.Operands[0]], out)

	case hlo.OpCollectivePermute, hlo.OpCollectivePermuteDone:
		// A done reads its start, whose value is the operand it carries.
		for d := range out {
			out[d] = ip.draw(in.Shape, 1)
		}
		CollectiveInto(in, permuteFrom(in, len(out)), out, values[in.Operands[0]])

	case hlo.OpCollectivePermuteStart:
		// The start carries its operand; the matching done performs the
		// movement.
		copy(out, values[in.Operands[0]])
		ip.hold(out...)

	case hlo.OpLoop:
		return ip.loop(in, values)

	case hlo.OpFusion:
		return ip.fusion(in, values, iter)

	default:
		ops := make([]*tensor.Tensor, len(in.Operands))
		s := Step{In: in}
		for d := range out {
			for i, op := range in.Operands {
				ops[i] = values[op][d]
			}
			v, err := ip.step(&s, ops, d, iter)
			if err != nil {
				return nil, err
			}
			out[d] = v
		}
	}
	return out, nil
}

// step evaluates one kernel on one device into a buffer drawn for its
// result; a literal or a tuple placeholder draws none.
func (ip *interp) step(s *Step, args []*tensor.Tensor, pid, iter int) (*tensor.Tensor, error) {
	if s.In.Op == hlo.OpConstant || s.In.Op == hlo.OpTuple {
		return s.EvalInto(nil, nil, args, pid, iter)
	}
	dst := ip.draw(s.In.Shape, 1)
	if _, err := s.EvalInto(dst, nil, args, pid, iter); err != nil {
		return nil, err
	}
	return dst, nil
}

// fusion interprets a fusion on every device: its steps in order, over
// a value list seeded with the device's operands. The steps' buffers
// are freed when the device's fusion finishes, all but the one holding
// the result, which the fusion's value names.
func (ip *interp) fusion(f *hlo.Instruction, values map[*hlo.Instruction][]*tensor.Tensor, iter int) ([]*tensor.Tensor, error) {
	fu, ok := ip.fusions[f]
	if !ok {
		steps, result, err := FusionSteps(f)
		if err != nil {
			return nil, err
		}
		fu = fusion{steps, result}
		ip.fusions[f] = fu
	}
	out := make([]*tensor.Tensor, ip.n)
	base := len(f.Operands)
	vals := make([]*tensor.Tensor, base+len(fu.steps))
	var args []*tensor.Tensor
	for d := range out {
		for k, op := range f.Operands {
			vals[k] = values[op][d]
		}
		for j := range fu.steps {
			s := &fu.steps[j]
			args = args[:0]
			for _, a := range s.Args {
				args = append(args, vals[a])
			}
			v, err := ip.step(s, args, d, iter)
			if err != nil {
				return nil, fmt.Errorf("sim: fusion %s: %w", f.Name, err)
			}
			vals[base+j] = v
		}
		out[d] = vals[fu.result]
		ip.hold(out[d])
		ip.drop(vals[base:]...)
	}
	return out, nil
}

// loop interprets a counted loop: the body runs TripCount times with
// the carried per-device values threaded from the root tuple back into
// the parameters, and the iteration index feeding the body's dynamic
// offsets. (hlo.VerifyRing has rejected nested loops: the decomposition
// never emits them.) The carried values are live values of their own,
// so each iteration releases whatever the body computed and does not
// carry on.
func (ip *interp) loop(l *hlo.Instruction, values map[*hlo.Instruction][]*tensor.Tensor) ([]*tensor.Tensor, error) {
	carried := make([][]*tensor.Tensor, len(l.Operands))
	for i, op := range l.Operands {
		carried[i] = values[op]
		ip.hold(carried[i]...)
	}
	root := l.Body.Root()
	body := newSeq(l.Body, func(in *hlo.Instruction) bool { return in == root || slices.Contains(root.Operands, in) })
	bodyValues := make(map[*hlo.Instruction][]*tensor.Tensor, len(body.instrs))
	resolve := func(p *hlo.Instruction, dev int) *tensor.Tensor { return carried[p.ParamIndex][dev] }
	for it := 0; it < l.TripCount; it++ {
		if err := ip.sequence(body, bodyValues, it, resolve); err != nil {
			return nil, fmt.Errorf("sim: loop %s iteration %d: %w", l.Name, it, err)
		}
		next := make([][]*tensor.Tensor, len(root.Operands))
		for i, op := range root.Operands {
			next[i] = bodyValues[op]
			ip.hold(next[i]...)
		}
		for _, in := range body.instrs {
			if v, ok := bodyValues[in]; ok {
				ip.drop(v...)
				delete(bodyValues, in)
			}
		}
		for _, v := range carried {
			ip.drop(v...)
		}
		carried = next
	}
	res := carried[l.ResultIndex]
	ip.hold(res...)
	for _, v := range carried {
		ip.drop(v...)
	}
	return res, nil
}

// groupCollective evaluates a group collective group by group into
// buffers drawn for its result; hlo.VerifyRing has every device in
// exactly one group. The members of an AllGather or AllReduce group all
// receive the same tensor, so they name one buffer, which the
// collective writes once.
func (ip *interp) groupCollective(in *hlo.Instruction, src, out []*tensor.Tensor) {
	for _, group := range in.Groups {
		var shared *tensor.Tensor
		if in.Op == hlo.OpAllGather || in.Op == hlo.OpAllReduce {
			shared = ip.draw(in.Shape, len(group))
		}
		inputs, dsts := make([]*tensor.Tensor, len(group)), make([]*tensor.Tensor, len(group))
		for i, dev := range group {
			if dsts[i] = shared; shared == nil {
				dsts[i] = ip.draw(in.Shape, 1)
			}
			inputs[i], out[dev] = src[dev], dsts[i]
		}
		CollectiveInto(in, nil, dsts, inputs)
	}
}

// CollectiveInto evaluates one instance of a blocking collective: the
// inputs of the members of one group (every device, for a permute), in
// member order, into their destinations. It is the one dispatch from
// collective opcode to kernel, so the lockstep interpreter and the
// concurrent runtime produce bit-identical tensors. A permute — a
// CollectivePermute, or a CollectivePermuteDone moving its start's
// operand — moves each device's input along from, the column of
// sources its pairs resolve to: the interpreter resolves it from the
// instruction (permuteFrom), the runtime reads the one its schedule
// resolved at Compile (Schedule.From). Any other collective ignores
// from.
func CollectiveInto(in *hlo.Instruction, from []int32, dsts, inputs []*tensor.Tensor) {
	switch in.Op {
	case hlo.OpAllGather:
		collective.AllGatherInto(dsts, inputs, in.CollectiveAxis)
	case hlo.OpReduceScatter:
		collective.ReduceScatterInto(dsts, inputs, in.CollectiveAxis)
	case hlo.OpAllReduce:
		collective.AllReduceInto(dsts, inputs)
	case hlo.OpAllToAll:
		collective.AllToAllInto(dsts, inputs, in.CollectiveAxis, in.Axis)
	case hlo.OpCollectivePermute, hlo.OpCollectivePermuteDone:
		collective.PermuteInto(dsts, inputs, from)
	default:
		panic(fmt.Sprintf("sim: %s is not a blocking collective", in.Op))
	}
}

// EvalLocalInto evaluates a device-local instruction on one device's
// operand values. pid and iter resolve partition- and iteration-
// dependent offsets. It is the one dispatch from opcode to kernel: the
// lockstep interpreter passes a buffer no live value names and gets
// value semantics — operands untouched — and the concurrent runtime
// (internal/runtime) passes the buffer its memory plan assigned, so the
// two execute the same kernel on the same bytes and agree bit for bit
// by construction. An einsum executes with the split-K factor its
// instruction carries, and takes its kernel scratch by way of scratch:
// the runtime's device passes its own stash, the interpreter nil.
//
// dst carries the result shape (the same element count for a Reshape,
// whose header is rewritten); its contents are ignored and it is
// returned. It may be one of the operands only where the kernel runs in
// place (Step.Overwrites names the positions): either operand of an Add
// or Max, the base of a DynamicUpdateSlice, the operand of a Copy or
// Reshape. A Constant (met inside fusion bodies) is its literal and a
// Tuple a fresh placeholder; neither uses dst. A fusion is not local:
// both executors run it as its steps (FusionSteps).
func EvalLocalInto(in *hlo.Instruction, dst *tensor.Tensor, scratch *tensor.Stash, ops []*tensor.Tensor, pid, iter int) (*tensor.Tensor, error) {
	switch in.Op {
	case hlo.OpConstant:
		return in.Literal, nil
	case hlo.OpZero:
		return tensor.Zero(dst, in.Shape...), nil
	case hlo.OpTuple:
		return tensor.New(), nil // rank-0 placeholder; outputs are read by name
	case hlo.OpEinsum:
		return tensor.EinsumIntoSplitK(dst, scratch, in.SplitK, in.EinsumSpec, ops[0], ops[1]), nil
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
	}
	return nil, fmt.Errorf("sim: cannot evaluate %s locally", in.Op)
}

var (
	overwritesFirst  = []int{0}
	overwritesEither = []int{0, 1}
)

// Step is one kernel evaluation of a fusion body. Both executors run a
// fusion as its steps: the interpreter each into a buffer no live value
// names, the runtime flattened into its tape with planned destinations.
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
func (s *Step) EvalInto(dst *tensor.Tensor, scratch *tensor.Stash, args []*tensor.Tensor, pid, iter int) (*tensor.Tensor, error) {
	if s.Fused == nil {
		return EvalLocalInto(s.In, dst, scratch, args, pid, iter)
	}
	var acc *tensor.Tensor
	if s.Base != nil {
		acc = tensor.EinsumIntoSplitK(dst, scratch, s.Base.SplitK, s.Base.EinsumSpec, args[0], args[1])
		args = args[2:]
	} else {
		acc = tensor.CopyInto(dst, args[0])
		args = args[1:]
	}
	return tensor.EinsumAddIntoSplitK(acc, scratch, s.Fused.EinsumSpec, args[0], args[1], s.Fused.SplitK), nil
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
	// are a handful of instructions, so a scan beats building a map.
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

// maxOffsetRank sizes the stack scratch dynamic offsets evaluate into;
// a higher-rank instruction (none exist) spills to the heap.
const maxOffsetRank = 8

func evalOffsets(buf []int, offsets []hlo.DynOffset, pid, iter int) []int {
	for _, o := range offsets {
		buf = append(buf, o.EvalIter(pid, iter))
	}
	return buf
}

// permuteFrom resolves a permute's pairs, read off the instruction, on
// n devices into the column of sources CollectiveInto moves its inputs
// along.
func permuteFrom(in *hlo.Instruction, n int) []int32 {
	pairs := make([][2]int, len(in.Pairs))
	for i, p := range in.Pairs {
		pairs[i] = [2]int{p.Source, p.Target}
	}
	return collective.PermuteSources(pairs, n)
}
