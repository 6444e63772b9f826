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
	// StepTime is the wall-clock duration of one execution of the
	// computation.
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

// Simulate runs the computation through the timing model on numDevices
// devices described by spec and returns the step breakdown.
//
// The model executes the scheduled instruction list position by position
// on all devices (SPMD lockstep). Local instructions advance a device's
// clock by their machine cost. A CollectivePermuteStart enqueues a
// transfer on the sender's outgoing path and costs (almost) nothing; the
// matching Done blocks the receiver until the transfer lands. Blocking
// collectives barrier their group and add the analytic ring cost. Each
// ordered device pair owns an independent path (transfers between the
// same pair serialize; the generated ring patterns use each neighbor
// link once per step, so this matches torus behaviour).
func Simulate(c *hlo.Computation, numDevices int, spec machine.Spec) (Breakdown, error) {
	b, _, err := simulate(c, numDevices, spec, 0)
	return b, err
}

// SimulateTrace runs the timing simulation and additionally returns a
// per-device span timeline for the first few devices: compute spans,
// blocking collective spans, asynchronous transfer spans (on the
// transfer-engine track) and exposed stalls. Only devices
// 0..obs.TraceMaxDevices-1 are recorded; spans for devices beyond the
// window are dropped, not merged.
func SimulateTrace(c *hlo.Computation, numDevices int, spec machine.Spec) (Breakdown, []obs.Span, error) {
	return simulate(c, numDevices, spec, min(numDevices, obs.TraceMaxDevices))
}

// simulate is the one simulation body; spans are recorded for the first
// traceDevices devices (zero records nothing).
func simulate(c *hlo.Computation, numDevices int, spec machine.Spec, traceDevices int) (Breakdown, []obs.Span, error) {
	if err := spec.Validate(); err != nil {
		return Breakdown{}, nil, err
	}
	if err := c.VerifyRing(numDevices); err != nil {
		return Breakdown{}, nil, err
	}

	st := &simState{
		spec:         spec,
		numDevices:   numDevices,
		now:          make([]float64, numDevices),
		compute:      make([]float64, numDevices),
		wire:         make([]float64, numDevices),
		exposed:      make([]float64, numDevices),
		outstanding:  make([][]float64, numDevices),
		linkFree:     map[[2]int]float64{},
		arrivals:     map[*hlo.Instruction][]float64{},
		traceDevices: traceDevices,
	}
	for i := 0; i < c.NumInstructions(); i++ {
		st.exec(c.At(i))
	}

	var b Breakdown
	for d := 0; d < numDevices; d++ {
		if st.now[d] > b.StepTime {
			b.StepTime = st.now[d]
		}
		b.Compute += st.compute[d] / float64(numDevices)
		b.CollectiveWire += st.wire[d] / float64(numDevices)
		b.Exposed += st.exposed[d] / float64(numDevices)
	}
	b.AsyncTransfers = st.asyncSends
	b.PeakInFlight = st.peakInFlight
	b.Record("sim")
	return b, st.trace, nil
}

// simState carries the per-device clocks and transfer bookkeeping of one
// simulation.
type simState struct {
	spec         machine.Spec
	numDevices   int
	now          []float64
	compute      []float64
	wire         []float64
	exposed      []float64
	outstanding  [][]float64
	linkFree     map[[2]int]float64
	arrivals     map[*hlo.Instruction][]float64
	asyncSends   int
	peakInFlight int

	// Tracing (SimulateTrace): spans recorded for the first
	// traceDevices devices; zero disables recording.
	traceDevices int
	trace        []obs.Span
}

// record appends a span for device d when the device is within the
// recorded window.
func (st *simState) record(d, track int, cat, name string, start, dur float64) {
	if d >= st.traceDevices || dur <= 0 {
		return
	}
	st.trace = append(st.trace, obs.Span{Device: d, Track: track, Cat: cat, Name: name, Start: start, Dur: dur})
}

// exec advances every device's clock across one instruction. It indexes
// by device id and pairs each done with its start's arrivals unchecked:
// hlo.VerifyRing ran first.
func (st *simState) exec(in *hlo.Instruction) {
	simInstructions.Inc()
	spec := st.spec
	numDevices := st.numDevices
	now := st.now
	wire := st.wire
	exposed := st.exposed
	outstanding := st.outstanding
	linkFree := st.linkFree
	arrivals := st.arrivals

	{
		switch in.Op {
		case hlo.OpCollectivePermuteStart:
			arr := make([]float64, numDevices)
			for d := range arr {
				arr[d] = -1
			}
			bytes := in.Operands[0].ByteSize()
			for d := 0; d < numDevices; d++ {
				tgt, ok := in.PairTarget(d)
				if !ok {
					continue
				}
				// Free completed transfer flags; stall if the async
				// budget (synchronization flags) is exhausted.
				live := outstanding[d][:0]
				for _, a := range outstanding[d] {
					if a > now[d] {
						live = append(live, a)
					}
				}
				outstanding[d] = live
				if len(outstanding[d]) >= spec.MaxInFlight {
					oldest := outstanding[d][0]
					if oldest > now[d] {
						exposed[d] += oldest - now[d]
						now[d] = oldest
					}
					outstanding[d] = outstanding[d][1:]
				}
				key := [2]int{d, tgt}
				depart := now[d]
				if f := linkFree[key]; f > depart {
					depart = f
				}
				t := spec.TransferTime(bytes, 1)
				arrival := depart + t
				linkFree[key] = arrival
				arr[tgt] = arrival
				outstanding[d] = append(outstanding[d], arrival)
				wire[d] += t
				st.record(d, obs.TrackTransfer, obs.CatTransfer, in.Name, depart, t)
				if len(outstanding[d]) > st.peakInFlight {
					st.peakInFlight = len(outstanding[d])
				}
				if d == 0 {
					st.asyncSends++
				}
			}
			arrivals[in] = arr

		case hlo.OpCollectivePermuteDone:
			arr := arrivals[in.Operands[0]]
			for d := 0; d < numDevices; d++ {
				if arr[d] < 0 {
					continue // device receives nothing: zero result, no wait
				}
				if arr[d] > now[d] {
					exposed[d] += arr[d] - now[d]
					st.record(d, obs.TrackCompute, obs.CatStall, in.Name, now[d], arr[d]-now[d])
					now[d] = arr[d]
				}
			}

		case hlo.OpCollectivePermute:
			// Blocking permute: send at current time, wait for arrival.
			bytes := in.Operands[0].ByteSize()
			t := spec.TransferTime(bytes, 1)
			newNow := append([]float64(nil), now...)
			for d := 0; d < numDevices; d++ {
				src, ok := in.PairSource(d)
				if !ok {
					continue
				}
				arrival := now[src] + t
				if arrival > newNow[d] {
					exposed[d] += arrival - newNow[d]
					st.record(d, obs.TrackCompute, obs.CatCollective, in.Name, newNow[d], arrival-newNow[d])
					newNow[d] = arrival
				}
			}
			for d := 0; d < numDevices; d++ {
				if _, sends := in.PairTarget(d); sends {
					wire[d] += t
				}
			}
			copy(now, newNow)

		case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll:
			cost := spec.CollectiveTime(in)
			for _, group := range in.Groups {
				barrier := 0.0
				for _, d := range group {
					if now[d] > barrier {
						barrier = now[d]
					}
				}
				finish := barrier + cost
				for _, d := range group {
					exposed[d] += finish - now[d]
					st.record(d, obs.TrackCompute, obs.CatCollective, in.Name, now[d], finish-now[d])
					now[d] = finish
					wire[d] += cost
				}
			}

		case hlo.OpLoop:
			// Execute the body TripCount times; each iteration's
			// transfers and compute are priced exactly like top-level
			// instructions. (The rolled Looped CollectiveEinsum keeps
			// blocking CollectivePermutes, so the loop exposes its
			// communication — which is why the optimized pipeline emits
			// the expanded form.)
			for it := 0; it < in.TripCount; it++ {
				for i := 0; i < in.Body.NumInstructions(); i++ {
					st.exec(in.Body.At(i))
				}
			}

		default:
			cost := spec.InstructionCost(in)
			for d := 0; d < numDevices; d++ {
				st.record(d, obs.TrackCompute, obs.CatCompute, in.Name, now[d], cost)
				now[d] += cost
				st.compute[d] += cost
			}
		}
	}
}
