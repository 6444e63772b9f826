package sim

import (
	"cmp"
	"slices"
	"sort"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
)

// The timing pass. A step is a max-plus function of per-op costs: walk
// the schedule in lockstep on every device, move each device's clock by
// what its ops cost, and let communication synchronize the clocks. Both
// executors time themselves through this one pass: Simulate over the
// machine model's costs, and the runtime, after its devices join, over
// the costs they recorded. Nothing in it waits or reads a host clock,
// so a test can hand it a cost table and read exact clocks back.
//
// The rules are the machine model's (§5.5). A local op moves its
// device's clock by its cost. A transfer's wire starts at its sender's
// clock, or when the wire ahead of it on its (source, target) link
// ends, and lasts its modeled wire times the pass's scale plus any
// delay. A sender with MaxInFlight transfers still in flight first
// stalls until the oldest arrives. A done moves its device's clock on
// to its transfer's arrival. A group collective ends every member's
// clock at the group's latest clock plus the collective's wire. A
// blocking permute's target is due at its own source's clock plus the
// wire, a device with no source keeps its clock, and only the sources
// are charged the wire.

// Schedule is a verified computation lowered once, for an n-device ring
// and a machine spec, into the flat form the timing pass walks: one op
// per instruction that takes time (parameters and constants take none),
// loop bodies inlined between a loop op and its back-edge, each start's
// row of arrivals and each of its pairs' links resolved, and every
// transfer's and collective's wire priced on the spec. It is immutable
// once built, and any number of passes walk it at once.
type Schedule struct {
	n           int
	maxInFlight int
	ops         []timedOp

	// starts is how many rows of arrivals a pass keeps, one per start;
	// links holds the link of each of the starts' pairs, of which there
	// are pairs.
	starts, pairs int
	links         []int32

	// executed counts the instructions one run executes, a loop's body
	// once per trip: what Simulate counts.
	executed int

	// Locals is how many local ops (Local) one device executes in a run,
	// a loop's body once per trip: the length of a cost row.
	Locals int

	// Edges lists the directed links the starts' pairs use, in (source,
	// target) order; an edge's position is its link index.
	Edges []Edge

	// Spans is the most spans a traced pass records: for each device
	// inside the trace window, one compute-track span per local op,
	// blocking collective and done it executes, one transfer span per
	// transfer it posts, and one stall span per MaxInFlight hold, which
	// only a send past its first MaxInFlight can meet. It sizes a traced
	// pass's span slab.
	Spans int
}

// Edge is one directed link, and how many transfers one run posts on
// it.
type Edge struct {
	Src, Dst, Transfers int
}

type timedKind uint8

const (
	timedLocal      timedKind = iota
	timedStart                // post a transfer per pair
	timedDone                 // wait for the start's arrivals
	timedCollective           // a blocking group collective
	timedPermute              // a blocking CollectivePermute
	timedLoop                 // loop entry
	timedLoopEnd              // loop back-edge
)

// timedOp is one op of a Schedule. A permute's pairs and a collective's
// groups are its instruction's own: shape inference gives a permute at
// most one pair per source and per target.
type timedOp struct {
	kind timedKind

	// box is a start's row of arrivals, which its done reads; link is
	// where its pairs' links begin in Schedule.links; jump is a loop
	// entry's back-edge and a back-edge's first body op.
	box, link, jump int32

	in *hlo.Instruction

	// wire is the modeled seconds of one transfer (a start) or of the
	// collective (a blocking one).
	wire float64
}

// Local reports whether in is a local op: one a device evaluates on its
// own, whose cost a cost row records. Every op is one except
// parameters, constants, collectives, the asynchronous starts and
// dones, and loops. The runtime's tape lowers by the same predicate, so
// its devices' cost rows line up with the schedule's local ops.
func Local(in *hlo.Instruction) bool {
	switch in.Op {
	case hlo.OpParameter, hlo.OpConstant,
		hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll, hlo.OpCollectivePermute,
		hlo.OpCollectivePermuteStart, hlo.OpCollectivePermuteDone, hlo.OpLoop:
		return false
	}
	return true
}

// NewSchedule lowers c, which hlo.VerifyRing accepted for an n-device
// ring, into its timing schedule, pricing its wire on spec.
func NewSchedule(c *hlo.Computation, n int, spec machine.Spec) *Schedule {
	// A ring's two directions are 2n edges: room for them up front.
	s := &Schedule{n: n, maxInFlight: spec.MaxInFlight, ops: make([]timedOp, 0, c.NumInstructions()), Edges: make([]Edge, 0, 2*n)}
	s.lower(c, spec, 1)
	slices.SortFunc(s.Edges, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst)) })
	s.links = make([]int32, s.pairs)
	for i := range s.ops {
		if op := &s.ops[i]; op.kind == timedStart {
			for k, p := range op.in.Pairs {
				link, _ := s.Link(p.Source, p.Target)
				s.links[int(op.link)+k] = int32(link)
			}
		}
	}
	// A device's k-th send finds at most k transfers in flight, so only
	// its sends past the first MaxInFlight can hold.
	for d := 0; d < min(n, obs.TraceMaxDevices) && s.maxInFlight > 0; d++ {
		sent := 0
		for _, e := range s.Edges {
			if e.Src == d {
				sent += e.Transfers
			}
		}
		s.Spans += max(sent-s.maxInFlight, 0)
	}
	return s
}

// Link is the index of the edge src→dst, and whether the schedule has
// one.
func (s *Schedule) Link(src, dst int) (int, bool) {
	at := sort.Search(len(s.Edges), func(i int) bool {
		e := s.Edges[i]
		return e.Src > src || e.Src == src && e.Dst >= dst
	})
	return at, at < len(s.Edges) && s.Edges[at].Src == src && s.Edges[at].Dst == dst
}

// Row is one device's cost row with every local op priced by price, in
// the order a device executes them.
func (s *Schedule) Row(price func(*hlo.Instruction) float64) []float64 {
	row := make([]float64, 0, s.Locals)
	iter := 0
	for pc := 0; pc < len(s.ops); pc++ {
		switch op := &s.ops[pc]; op.kind {
		case timedLocal:
			row = append(row, price(op.in))
		case timedLoop:
			iter = 0
			if op.in.TripCount == 0 {
				pc = int(op.jump)
			}
		case timedLoopEnd:
			if iter+1 < op.in.TripCount {
				iter++
				pc = int(op.jump) - 1
			}
		}
	}
	return row
}

// lower appends the ops of one instruction sequence that executes trips
// times a run, and counts what they execute.
func (s *Schedule) lower(c *hlo.Computation, spec machine.Spec, trips int) {
	window := min(s.n, obs.TraceMaxDevices)
	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		s.executed += trips
		op := timedOp{in: in}
		switch {
		case Local(in):
			op.kind = timedLocal
			s.Locals += trips

		case in.Op == hlo.OpParameter || in.Op == hlo.OpConstant:
			continue

		case in.Op == hlo.OpCollectivePermuteStart:
			op.kind = timedStart
			op.box = int32(s.starts)
			s.starts++
			op.wire = spec.TransferTime(in.Operands[0].ByteSize(), 1)
			op.link = int32(s.pairs)
			s.pairs += len(in.Pairs)
			for _, p := range in.Pairs {
				s.edge(p.Source, p.Target, trips)
				if p.Source < window {
					s.Spans += trips
				}
			}
			s.ops = append(s.ops, op)
			continue

		case in.Op == hlo.OpCollectivePermuteDone:
			op.kind = timedDone
			op.box = s.startBox(in.Operands[0])

		case in.Op == hlo.OpLoop:
			entry := len(s.ops)
			s.ops = append(s.ops, timedOp{kind: timedLoop, in: in})
			s.lower(in.Body, spec, trips*in.TripCount)
			s.ops[entry].jump = int32(len(s.ops))
			s.ops = append(s.ops, timedOp{kind: timedLoopEnd, in: in, jump: int32(entry + 1)})
			continue

		case in.Op == hlo.OpCollectivePermute:
			op.kind = timedPermute
			op.wire = spec.CollectiveTime(in)

		default: // a group collective
			op.kind = timedCollective
			op.wire = spec.CollectiveTime(in)
		}
		// A local op, done or blocking collective: at most one
		// compute-track span on each device in the window.
		s.Spans += window * trips
		s.ops = append(s.ops, op)
	}
}

// startBox is the row of arrivals of start, which the schedule lowered
// before its done: a verified done reads its own sequence's start.
func (s *Schedule) startBox(start *hlo.Instruction) int32 {
	for i := len(s.ops) - 1; ; i-- {
		if s.ops[i].in == start {
			return s.ops[i].box
		}
	}
}

// edge counts trips more transfers on the edge src→dst.
func (s *Schedule) edge(src, dst, trips int) {
	for i := range s.Edges {
		if e := &s.Edges[i]; e.Src == src && e.Dst == dst {
			e.Transfers += trips
			return
		}
	}
	s.Edges = append(s.Edges, Edge{Src: src, Dst: dst, Transfers: trips})
}

// Clocks is the timing pass's state: what it keeps per device, link and
// start. A caller holds one per concurrent pass and reuses it, so a
// pass after the first allocates nothing. After a pass it holds every
// device's final clock, and the seconds on it of local cost, of wire
// the device sent, and of waiting for communication.
type Clocks struct {
	s *Schedule

	// stall and collective observe each done's and each blocking
	// collective member's wait; nil observes nothing.
	stall, collective *obs.Histogram

	// Per device, as the last pass left them.
	Now, Compute, Wire, Exposed []float64

	// prev is scratch for a blocking permute, which reads the clocks as
	// they were before it; free[link] is when the wire of the link's
	// last transfer ends; arrive[box*n+d] is when device d's transfer of
	// the start with that row arrives, -1 when d receives none.
	prev, free, arrive []float64

	// flight[d] lists the arrivals of device d's transfers still in
	// flight, oldest first: what MaxInFlight bounds.
	flight [][]float64
}

// NewClocks lays out a pass's state for s, its floats in one array. A
// pass observes each done's wait into stall and each blocking
// collective member's wait into collective; either may be nil.
func (s *Schedule) NewClocks(stall, collective *obs.Histogram) Clocks {
	n, links := s.n, len(s.Edges)
	buf := make([]float64, 5*n+links+s.starts*n)
	return Clocks{
		s:          s,
		stall:      stall,
		collective: collective,
		Now:        buf[0*n : 1*n],
		Compute:    buf[1*n : 2*n],
		Wire:       buf[2*n : 3*n],
		Exposed:    buf[3*n : 4*n],
		prev:       buf[4*n : 5*n],
		free:       buf[5*n : 5*n+links],
		arrive:     buf[5*n+links:],
		flight:     make([][]float64, n),
	}
}

// Time runs the timing pass. cost[d][k] is the seconds the k-th local
// op device d executed took. A transfer's or collective's wire is its
// modeled seconds times scale (none at all at scale <= 0), and a
// transfer's lengthens by delay(source, target, name) when delay is not
// nil; the pass asks for each link's transfers in order, once each. A
// traced pass — one handed a slab, Schedule.Spans long — records the
// spans of the first obs.TraceMaxDevices devices into slab[:0] and
// returns them in obs.SpanLess order; a nil slab records none.
func (c *Clocks) Time(cost [][]float64, scale float64, delay func(src, dst int, name string) float64, slab []obs.Span) (Breakdown, []obs.Span) {
	s := c.s
	n := s.n
	for _, v := range [][]float64{c.Now, c.Compute, c.Wire, c.Exposed, c.free} {
		clear(v)
	}
	for d := range c.flight {
		c.flight[d] = c.flight[d][:0]
	}
	now, exposed := c.Now, c.Exposed
	window := 0
	if slab != nil {
		window = min(n, obs.TraceMaxDevices)
	}
	spans := slab[:0]
	record := func(d, track int, cat, name string, start, dur float64) {
		if d < window && dur > 0 {
			spans = append(spans, obs.Span{Device: d, Track: track, Cat: cat, Name: name, Start: start, Dur: dur})
		}
	}
	// waitUntil moves device d's clock on to until, if it is behind: the
	// wait is exposed, a span of category cat.
	waitUntil := func(d int, until float64, cat, name string) {
		if until > now[d] {
			exposed[d] += until - now[d]
			record(d, obs.TrackCompute, cat, name, now[d], until-now[d])
			now[d] = until
		}
	}
	wireOf := func(modeled float64) float64 {
		if scale <= 0 {
			return 0
		}
		return modeled * scale
	}

	var b Breakdown
	ops := s.ops
	k, iter := 0, 0
	for pc := 0; pc < len(ops); pc++ {
		op := &ops[pc]
		name := op.in.Name
		switch op.kind {
		case timedLoop:
			iter = 0
			if op.in.TripCount == 0 {
				pc = int(op.jump)
			}

		case timedLoopEnd:
			if iter+1 < op.in.TripCount {
				iter++
				pc = int(op.jump) - 1
			}

		case timedLocal:
			for d := 0; d < n; d++ {
				t := cost[d][k]
				record(d, obs.TrackCompute, obs.CatCompute, name, now[d], t)
				now[d] += t
				c.Compute[d] += t
			}
			k++

		case timedStart:
			arr := c.arrive[int(op.box)*n : int(op.box+1)*n]
			for d := range arr {
				arr[d] = -1
			}
			for i, p := range op.in.Pairs {
				d, tgt := p.Source, p.Target
				waitUntil(d, c.hold(d), obs.CatStall, name)
				link := s.links[int(op.link)+i]
				t := wireOf(op.wire)
				if delay != nil {
					t += delay(d, tgt, name)
				}
				depart := max(now[d], c.free[link])
				arrival := depart + t
				c.free[link] = arrival
				arr[tgt] = arrival
				c.flight[d] = append(c.flight[d], arrival)
				c.Wire[d] += t
				record(d, obs.TrackTransfer, obs.CatTransfer, name, depart, t)
				b.PeakInFlight = max(b.PeakInFlight, len(c.flight[d]))
				if d == 0 {
					b.AsyncTransfers++
				}
			}

		case timedDone:
			arr := c.arrive[int(op.box)*n : int(op.box+1)*n]
			for d := 0; d < n; d++ {
				if arr[d] < 0 {
					continue
				}
				c.stall.Observe(max(arr[d]-now[d], 0))
				waitUntil(d, arr[d], obs.CatStall, name)
			}

		case timedPermute:
			t := wireOf(op.wire)
			copy(c.prev, now)
			for _, p := range op.in.Pairs {
				src, d := p.Source, p.Target
				c.Wire[src] += t
				until := c.prev[src] + t
				c.collective.Observe(max(until-now[d], 0))
				waitUntil(d, until, obs.CatCollective, name)
			}

		case timedCollective:
			t := wireOf(op.wire)
			for _, group := range op.in.Groups {
				finish := 0.0
				for _, d := range group {
					finish = max(finish, now[d])
				}
				finish += t
				for _, d := range group {
					c.collective.Observe(finish - now[d])
					waitUntil(d, finish, obs.CatCollective, name)
					c.Wire[d] += t
				}
			}
		}
	}

	for d := 0; d < n; d++ {
		b.StepTime = max(b.StepTime, now[d])
		b.Compute += c.Compute[d] / float64(n)
		b.CollectiveWire += c.Wire[d] / float64(n)
		b.Exposed += exposed[d] / float64(n)
	}
	slices.SortStableFunc(spans, spanCompare)
	return b, spans
}

// hold returns the clock device d, about to send, must reach before
// fewer than MaxInFlight of its transfers are in flight: arrivals at or
// before its clock leave the list, and at the bound the oldest leaves
// too and is the answer. A spec without the bound holds nothing.
func (c *Clocks) hold(d int) float64 {
	now := c.Now[d]
	f := c.flight[d][:0]
	for _, a := range c.flight[d] {
		if a > now {
			f = append(f, a)
		}
	}
	until := now
	if bound := c.s.maxInFlight; bound > 0 && len(f) >= bound {
		until = f[0]
		f = f[:copy(f, f[1:])]
	}
	c.flight[d] = f
	return until
}

// spanCompare is obs.SpanLess as a three-way comparison.
func spanCompare(a, b obs.Span) int {
	switch {
	case obs.SpanLess(a, b):
		return -1
	case obs.SpanLess(b, a):
		return 1
	}
	return 0
}
