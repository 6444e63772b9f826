package runtime

import (
	"slices"

	"overlap/internal/obs"
	"overlap/internal/sim"
)

// A run's timing is a replay. The devices move data and record what
// each local op cost (device.cost); after they join, one pass on one
// goroutine walks the tape in lockstep over that cost table, the way
// sim.Simulate walks the scheduled HLO, and computes every device's
// clock, the Breakdown and every span. Nothing in it waits, and nothing
// the goroutines did besides the recorded costs reaches it, so a test
// can call it with a hand-set table and no goroutine at all.
//
// The rules are the machine model's. A local op moves its device's
// clock by its cost. A transfer's wire starts at its sender's clock, or
// when the wire ahead of it on its (source, target) link ends, and
// lasts the op's modeled wire times the run's TimeScale plus any
// injected delay; a sender with MaxInFlight transfers still in flight
// first waits for the oldest. A done moves its device's clock on to
// its transfer's arrival. A group collective ends every member's clock
// at the group's latest clock plus the collective's wire; a blocking
// permute's target is due at its own source's clock plus the wire, and
// a device with no source keeps its clock. Under the model's costs
// (spec.InstructionCost per local op, TimeScale 1) the replay is
// sim.Simulate.

// clocks is the replay's state: what the pass keeps per device, link
// and mailbox. It lives in the run context, so a warm replay allocates
// nothing.
type clocks struct {
	x *Executable

	// Per device: the clock, and seconds on it of local cost, of wire it
	// sent, and of waiting for communication; prev is scratch for a
	// blocking permute, which reads the clocks as they were before it.
	now, compute, wire, exposed, prev []float64

	// free[link] is when the wire of the link's last transfer ends.
	free []float64

	// arrive[box*n+d] is when device d's transfer of the start with
	// mailbox box arrives, -1 when d receives none.
	arrive []float64

	// flight[d] lists the arrivals of device d's transfers still in
	// flight, oldest first: what MaxInFlight bounds.
	flight [][]float64
}

// newClocks lays out the replay's state for x, its floats in one array.
func newClocks(x *Executable) clocks {
	n, edges := x.n, len(x.edges)
	buf := make([]float64, 5*n+edges+len(x.tape.boxes)*n)
	return clocks{
		x:       x,
		now:     buf[0*n : 1*n],
		compute: buf[1*n : 2*n],
		wire:    buf[2*n : 3*n],
		exposed: buf[3*n : 4*n],
		prev:    buf[4*n : 5*n],
		free:    buf[5*n : 5*n+edges],
		arrive:  buf[5*n+edges:],
		flight:  make([][]float64, n),
	}
}

// replay computes a run's timing from its cost table: cost[d][k] is
// the cost in seconds of the k-th local op device d executed. scale is
// the run's TimeScale, inj its fault injector (nil without one), and
// window the number of leading devices whose spans are recorded. The
// spans are appended to slab[:0] and returned in obs.SpanLess order.
func (c *clocks) replay(cost [][]float64, scale float64, inj *injector, window int, slab []obs.Span) (sim.Breakdown, []obs.Span) {
	x := c.x
	n := x.n
	for _, s := range [][]float64{c.now, c.compute, c.wire, c.exposed, c.free} {
		clear(s)
	}
	for d := range c.flight {
		c.flight[d] = c.flight[d][:0]
	}
	now, exposed := c.now, c.exposed
	spans := slab[:0]
	record := func(d, track int, cat, name string, start, dur float64) {
		if d < window && dur > 0 {
			spans = append(spans, obs.Span{Device: d, Track: track, Cat: cat, Name: name, Start: start, Dur: dur})
		}
	}
	wireOf := func(modeled float64) float64 {
		if scale <= 0 {
			return 0
		}
		return modeled * scale
	}

	var b sim.Breakdown
	ops := x.tape.ops
	k, iter := 0, 0
	for pc := 0; pc < len(ops); pc++ {
		op := &ops[pc]
		name := op.in.Name
		switch op.kind {
		case opLoop:
			iter = 0
			if op.loop.trips == 0 {
				pc = int(op.loop.end)
			}

		case opLoopEnd:
			if iter+1 < op.loop.trips {
				iter++
				pc = int(op.loop.begin) - 1
			}

		case opLocal:
			for d := 0; d < n; d++ {
				t := cost[d][k]
				record(d, obs.TrackCompute, obs.CatCompute, name, now[d], t)
				now[d] += t
				c.compute[d] += t
			}
			k++

		case opStart:
			arr := c.arrive[int(op.box)*n : int(op.box+1)*n]
			for d := range arr {
				arr[d] = -1
			}
			for d := 0; d < n; d++ {
				tgt := int(op.peer[d])
				if tgt < 0 {
					continue
				}
				c.hold(d)
				link := x.link[[2]int{d, tgt}]
				t := wireOf(op.modeled) + inj.delay(d, tgt, name).Seconds()
				depart := max(now[d], c.free[link])
				arrival := depart + t
				c.free[link] = arrival
				arr[tgt] = arrival
				c.flight[d] = append(c.flight[d], arrival)
				c.wire[d] += t
				record(d, obs.TrackTransfer, obs.CatTransfer, name, depart, t)
				b.PeakInFlight = max(b.PeakInFlight, len(c.flight[d]))
				if d == 0 {
					b.AsyncTransfers++
				}
			}

		case opDone:
			arr := c.arrive[int(op.box)*n : int(op.box+1)*n]
			for d := 0; d < n; d++ {
				if arr[d] < 0 {
					continue
				}
				wait := max(arr[d]-now[d], 0)
				rtStallSpans.Observe(wait)
				if wait > 0 {
					exposed[d] += wait
					record(d, obs.TrackCompute, obs.CatStall, name, now[d], wait)
					now[d] = arr[d]
				}
			}

		case opCollective:
			t := wireOf(op.modeled)
			if op.peer != nil {
				c.permute(op, t, record)
				continue
			}
			for _, group := range op.groups.devs {
				finish := 0.0
				for _, d := range group {
					finish = max(finish, now[d])
				}
				finish += t
				for _, d := range group {
					rtCollectiveSpans.Observe(finish - now[d])
					exposed[d] += finish - now[d]
					record(d, obs.TrackCompute, obs.CatCollective, name, now[d], finish-now[d])
					now[d] = finish
					c.wire[d] += t
				}
			}
		}
	}

	for d := 0; d < n; d++ {
		b.StepTime = max(b.StepTime, now[d])
		b.Compute += c.compute[d] / float64(n)
		b.CollectiveWire += c.wire[d] / float64(n)
		b.Exposed += exposed[d] / float64(n)
	}
	slices.SortStableFunc(spans, spanCompare)
	return b, spans
}

// hold makes device d, about to send, wait until fewer than
// MaxInFlight of its transfers are in flight: arrivals at or before its
// clock leave the list, and at the bound its clock moves on to the
// oldest one, which leaves too. A spec without the bound holds nothing.
func (c *clocks) hold(d int) {
	now := c.now[d]
	f := c.flight[d][:0]
	for _, a := range c.flight[d] {
		if a > now {
			f = append(f, a)
		}
	}
	if bound := c.x.spec.MaxInFlight; bound > 0 && len(f) >= bound {
		if f[0] > now {
			c.exposed[d] += f[0] - now
			c.now[d] = f[0]
		}
		f = f[:copy(f, f[1:])]
	}
	c.flight[d] = f
}

// permute times a blocking CollectivePermute: each target is due its
// own source's clock plus the wire t, a device it reaches no sooner
// keeps its clock, and only the sources are charged the wire.
func (c *clocks) permute(op *tapeOp, t float64, record func(d, track int, cat, name string, start, dur float64)) {
	copy(c.prev, c.now)
	for d, src := range op.peer {
		if src < 0 {
			continue
		}
		c.wire[src] += t
		wait := c.prev[src] + t - c.now[d]
		rtCollectiveSpans.Observe(max(wait, 0))
		if wait > 0 {
			c.exposed[d] += wait
			record(d, obs.TrackCompute, obs.CatCollective, op.in.Name, c.now[d], wait)
			c.now[d] = c.prev[src] + t
		}
	}
}
