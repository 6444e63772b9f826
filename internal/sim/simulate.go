package sim

import (
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
)

// Breakdown reports where a simulated training/inference step spent its
// time. Compute, CollectiveWire and Exposed are averages over devices;
// StepTime is the critical path (max finish time over devices).
type Breakdown struct {
	// StepTime is the length of one execution of the computation: the
	// latest device clock the timing pass ends on, from per-op costs and
	// the wire.
	StepTime float64
	// Compute is the time spent executing local instructions.
	Compute float64
	// CollectiveWire is the total wire time of all communication the
	// device initiated, whether or not it was hidden.
	CollectiveWire float64
	// Exposed is the time the device sat idle waiting for communication
	// (blocking collectives plus unhidden asynchronous waits).
	Exposed float64
	// AsyncTransfers counts CollectivePermuteStart sends issued per
	// device.
	AsyncTransfers int
	// PeakInFlight is the maximum number of simultaneously outstanding
	// asynchronous transfers observed on any device.
	PeakInFlight int
}

// CommFraction returns exposed communication as a fraction of step time.
func (b Breakdown) CommFraction() float64 {
	if b.StepTime == 0 {
		return 0
	}
	return b.Exposed / b.StepTime
}

// Simulate prices the computation on numDevices devices described by
// spec and returns the step breakdown: it lowers the program into its
// schedule (NewSchedule) and runs the timing pass over the machine
// model's costs (Schedule.Model): every local op priced by
// spec.InstructionCost, in one cost row every device shares, and the
// modeled wire at scale 1. So the model executes the scheduled instruction list in
// SPMD lockstep: a local op advances its device's clock by its machine
// cost, a CollectivePermuteStart puts a transfer on its sender's
// outgoing link and costs nothing, the matching done blocks the
// receiver until the transfer lands, and a blocking collective barriers
// its group and adds the analytic ring cost. Each ordered device pair
// owns an independent link (transfers between the same pair serialize;
// the generated ring patterns use each neighbor link once per step, so
// this matches torus behaviour).
func Simulate(c *hlo.Computation, numDevices int, spec machine.Spec) (Breakdown, error) {
	b, _, err := simulate(c, numDevices, spec, false)
	return b, err
}

// SimulateTrace is Simulate that also returns the pass's span timeline
// for the first few devices, in obs.SpanLess order: compute spans,
// blocking collective spans, asynchronous transfer spans (on the
// transfer-engine track) and exposed stalls. Only devices
// 0..obs.TraceMaxDevices-1 are recorded; spans for devices beyond the
// window are dropped, not merged.
func SimulateTrace(c *hlo.Computation, numDevices int, spec machine.Spec) (Breakdown, []obs.Span, error) {
	return simulate(c, numDevices, spec, true)
}

// simulate is the one simulation body; traced records the spans.
func simulate(c *hlo.Computation, numDevices int, spec machine.Spec, traced bool) (Breakdown, []obs.Span, error) {
	if err := spec.Validate(); err != nil {
		return Breakdown{}, nil, err
	}
	if err := c.VerifyRing(numDevices); err != nil {
		return Breakdown{}, nil, err
	}
	s := NewSchedule(c, numDevices, spec)
	simInstructions.Add(float64(s.executed))
	var slab []obs.Span
	if traced {
		slab = make([]obs.Span, s.Spans)
	}
	b, spans := s.Model(slab)
	b.Record("sim")
	return b, spans, nil
}
