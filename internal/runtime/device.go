package runtime

import (
	"sync"

	"overlap/internal/hlo"
	"overlap/internal/obs"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// devStatus is what a device was last doing, published for the deadline
// watchdog: the pipeline phase and when the device entered it. The
// instruction name lives beside it in device.statInstr.
type devStatus struct {
	phase Phase
	since float64
}

// device is one SPMD participant: a goroutine executing the scheduled
// instruction sequence against its own arena. All of its fields are
// goroutine-local while running, except the watchdog-facing status,
// which is published under statMu; the engine reads everything else
// only after the device has joined.
type device struct {
	id  int
	eng *engine

	// values is the top-level arena: every scheduled instruction's value
	// on this device (loop bodies use per-iteration scratch arenas).
	values map[*hlo.Instruction]*tensor.Tensor

	// execCount tracks per-instruction execution counts; it numbers
	// asynchronous transfer instances and collective generations, which
	// stay aligned across devices because SPMD executes the same
	// sequence everywhere.
	execCount map[*hlo.Instruction]int

	// seq counts every instruction this device has executed, in program
	// order with loop bodies counted once per iteration — the index
	// crash faults address.
	seq int

	// Measured seconds: local evaluation, initiated wire occupancy, and
	// time spent blocked on communication.
	compute, wire, exposed float64

	asyncSends   int
	outstanding  int
	peakInFlight int

	finished float64
	trace    []obs.Span

	statMu    sync.Mutex
	status    devStatus
	statInstr string
}

func newDevice(e *engine, id int) *device {
	return &device{
		id:        id,
		eng:       e,
		values:    make(map[*hlo.Instruction]*tensor.Tensor, e.comp.NumInstructions()),
		execCount: map[*hlo.Instruction]int{},
	}
}

// setStat publishes the phase the device is entering; the watchdog uses
// it to attribute deadline aborts to the device blocked longest in the
// most communication-bound phase.
func (d *device) setStat(phase Phase, instr string) {
	d.statMu.Lock()
	d.status = devStatus{phase: phase, since: d.eng.since()}
	d.statInstr = instr
	d.statMu.Unlock()
}

// clearStat marks the device idle (finished or failed).
func (d *device) clearStat() {
	d.statMu.Lock()
	d.status = devStatus{}
	d.statInstr = ""
	d.statMu.Unlock()
}

// stat returns the device's published status.
func (d *device) stat() (devStatus, string) {
	d.statMu.Lock()
	defer d.statMu.Unlock()
	return d.status, d.statInstr
}

// run executes the top-level sequence and records the device's total
// wall-clock. Any failure aborts the whole engine.
func (d *device) run(paramFor func(p *hlo.Instruction, dev int) *tensor.Tensor) {
	resolve := func(p *hlo.Instruction) *tensor.Tensor { return paramFor(p, d.id) }
	d.runSeq(d.eng.comp.Instructions(), d.values, 0, resolve)
	d.finished = d.eng.since()
	d.clearStat()
}

// runSeq executes one instruction sequence (the program, or a loop body
// at one iteration) into the given arena. It returns false when the run
// aborted — either this device failed or another one did.
func (d *device) runSeq(instrs []*hlo.Instruction, values map[*hlo.Instruction]*tensor.Tensor, iter int, resolve func(p *hlo.Instruction) *tensor.Tensor) bool {
	e := d.eng
	for _, in := range instrs {
		if e.inj != nil {
			if f, ok := e.inj.crash(d.id, d.seq); ok {
				e.inj.record(f, in.Name)
				rtFaultCrashes.Inc()
				e.fail(&RunError{
					Device: d.id, Instr: in.Name, Phase: PhaseCompute,
					Elapsed: e.sinceDur(), Fault: f.String(), Err: ErrInjectedCrash,
				})
				return false
			}
		}
		d.seq++
		rtInstructions.Inc()
		switch in.Op {
		case hlo.OpParameter:
			values[in] = resolve(in)

		case hlo.OpConstant:
			values[in] = in.Literal

		case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce,
			hlo.OpAllToAll, hlo.OpCollectivePermute:
			d.setStat(PhaseRendezvous, in.Name)
			gen := d.bump(in)
			t0 := e.since()
			out, ok := e.rendezvous(in, gen, d.id, values[in.Operands[0]])
			if !ok {
				return false
			}
			wait := e.since() - t0
			d.exposed += wait
			d.wire += e.collectiveDelay(in).Seconds()
			rtCollectiveSpans.Observe(wait)
			d.span("collective", in.Name, t0, wait)
			values[in] = out

		case hlo.OpCollectivePermuteStart:
			// The start carries its operand (matching the interpreter);
			// if this device is a pair source, the tensor is posted to
			// the link without waiting for the wire.
			operand := values[in.Operands[0]]
			values[in] = operand
			inst := d.bump(in)
			if target, ok := in.PairTarget(d.id); ok {
				d.setStat(PhasePost, in.Name)
				bytes := in.Operands[0].ByteSize()
				if !e.fabric.post(d.id, target, mailKey{start: in, inst: inst}, operand, bytes) {
					return false
				}
				d.wire += e.transferDelay(bytes).Seconds()
				d.asyncSends++
				d.outstanding++
				if d.outstanding > d.peakInFlight {
					d.peakInFlight = d.outstanding
				}
			}

		case hlo.OpCollectivePermuteDone:
			start := in.Operands[0]
			inst := d.bump(in)
			t0 := e.since()
			var out *tensor.Tensor
			if _, ok := in.PairSource(d.id); ok {
				d.setStat(PhaseReceive, in.Name)
				t, alive := e.fabric.receive(d.id, mailKey{start: start, inst: inst})
				if !alive {
					return false
				}
				out = t.Clone()
			} else {
				// Non-targets get a zero tensor, mirroring the permute
				// kernel's zero fill.
				out = shapedZero(in.Shape)
			}
			wait := e.since() - t0
			d.exposed += wait
			rtStallSpans.Observe(wait)
			d.span("stall", in.Name, t0, wait)
			if _, ok := start.PairTarget(d.id); ok {
				d.outstanding--
			}
			values[in] = out

		case hlo.OpLoop:
			if !d.runLoop(in, values) {
				return false
			}

		default:
			ops := make([]*tensor.Tensor, len(in.Operands))
			for i, op := range in.Operands {
				ops[i] = values[op]
			}
			d.setStat(PhaseCompute, in.Name)
			t0 := e.since()
			v, err := sim.EvalLocal(in, ops, d.id, iter)
			if err != nil {
				e.fail(&RunError{
					Device: d.id, Instr: in.Name, Phase: PhaseCompute,
					Elapsed: e.sinceDur(), Err: err,
				})
				return false
			}
			dur := e.since() - t0
			d.compute += dur
			rtComputeSpans.Observe(dur)
			d.span("compute", in.Name, t0, dur)
			values[in] = v
		}
	}
	return true
}

// runLoop executes a counted loop on this device, threading the carried
// buffers from the body's root tuple back into its parameters, exactly
// like the interpreter's runLoop but device-local. Collectives inside
// the body synchronize through the engine as usual; the execution
// counters give each iteration a distinct generation.
func (d *device) runLoop(loop *hlo.Instruction, values map[*hlo.Instruction]*tensor.Tensor) bool {
	carried := make([]*tensor.Tensor, len(loop.Operands))
	for i, op := range loop.Operands {
		carried[i] = values[op]
	}
	bodyInstrs := loop.Body.Instructions()
	root := loop.Body.Root()
	for it := 0; it < loop.TripCount; it++ {
		bodyValues := make(map[*hlo.Instruction]*tensor.Tensor, len(bodyInstrs))
		resolve := func(p *hlo.Instruction) *tensor.Tensor { return carried[p.ParamIndex] }
		if !d.runSeq(bodyInstrs, bodyValues, it, resolve) {
			return false
		}
		for i, op := range root.Operands {
			carried[i] = bodyValues[op]
		}
	}
	values[loop] = carried[loop.ResultIndex]
	return true
}

// bump returns this device's execution count for the instruction and
// advances it.
func (d *device) bump(in *hlo.Instruction) int {
	n := d.execCount[in]
	d.execCount[in] = n + 1
	return n
}

// span records one compute-track span when tracing is on and the
// device is inside the recorded window.
func (d *device) span(cat, name string, start, dur float64) {
	if !d.eng.opts.Trace || d.id >= d.eng.traceWindow() || dur <= 0 {
		return
	}
	d.trace = append(d.trace, obs.Span{
		Device: d.id, Track: obs.TrackCompute,
		Cat: cat, Name: name, Start: start, Dur: dur,
	})
}
