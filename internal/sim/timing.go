package sim

import (
	"cmp"
	"slices"

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

// Schedule is the program's one lowering: a verified computation
// lowered once, for an n-device ring and a machine spec, into one list
// of ops in program order. Both executors walk it by position — the
// timing pass over a cost table, and the runtime's devices over their
// slots — so the k-th cost a device records is the cost of the
// schedule's k-th local op. Every instruction is one op, parameters and
// constants too (they take no time), and a loop's body is inlined
// between its entry and its back-edge. What a walk needs of an
// instruction's pairs, groups and trip count is resolved here, once,
// from the instruction as it was: each communication's mailbox number,
// each done's start, each loop's jumps and trips, each permute's
// per-device peer and each transfer's link. The wire is priced on the
// spec. It is immutable once built, and any number of walks read it at
// once.
type Schedule struct {
	n    int
	spec machine.Spec

	// Ops are the program's ops in program order, loop bodies once;
	// Comms are its communications, by mailbox number.
	Ops   []Op
	Comms []Comm

	// cols holds the per-device columns of every point-to-point
	// communication — a start, or a blocking permute — in one array,
	// two per row: its links, then its sources (Links, From). rows
	// counts those rows; all is the one group of every device, which
	// each blocking permute's Members shares.
	cols []int32
	rows int
	all  [][]int

	// executed counts the instructions one run executes, a loop's body
	// once per trip: what Simulate counts.
	executed int

	// Locals is how many local ops one device executes in a run, a
	// loop's body once per trip: the length of a cost row.
	Locals int

	// Edges lists the directed links the starts' pairs use, in (source,
	// target) order; an edge's position is its link index.
	Edges []Edge

	// Spans is what every traced pass can record: for each device
	// inside the trace window, one compute-track span per local op,
	// blocking collective and done it executes, and one transfer span
	// per transfer it posts. It sizes a traced pass's span slab. A send
	// that meets a MaxInFlight hold records one stall span more, past
	// the slab: a hold is rare, and the slab has no room for it.
	Spans int
}

// Edge is one directed link, and how many transfers one run posts on
// it.
type Edge struct {
	Src, Dst, Transfers int
}

// OpKind is what an op of a Schedule does.
type OpKind uint8

const (
	OpParameter  OpKind = iota // a run argument, or a loop body's carried value
	OpConstant                 // a literal
	OpLocal                    // evaluated by its device alone: one entry of a cost row
	OpStart                    // post a transfer per pair
	OpDone                     // take the start's transfers
	OpCollective               // a blocking group collective
	OpPermute                  // a blocking CollectivePermute
	OpLoop                     // loop entry
	OpLoopEnd                  // loop back-edge; not an instruction of its own
)

// Op is one op of a Schedule.
type Op struct {
	In   *hlo.Instruction
	Kind OpKind

	// Comm is the mailbox number of a start's, done's or blocking
	// collective's communication. Jump is a loop entry's back-edge and a
	// back-edge's first body op, and Trips the loop's trip count, on
	// both.
	Comm, Jump, Trips int32
}

// Comm is one communication: a start and the done that takes its
// transfers, or a blocking collective. Its position in Schedule.Comms
// is its mailbox number on every device.
type Comm struct {
	// At is the position of the start or the collective.
	At int32

	// row numbers a point-to-point communication — a start, or a
	// blocking permute — among them: its columns in the schedule's
	// column array, and its row of arrivals in a timing pass. It is -1
	// for a group collective.
	row int32

	// Members[g] lists the devices of a blocking collective's group g,
	// by position: a group collective's own groups, a blocking permute's
	// every device in one.
	Members [][]int

	// Bytes is a start's payload, in the IR's 4-byte convention.
	Bytes int64

	// wire is the modeled seconds of one transfer (a start) or of the
	// collective (a blocking one).
	wire float64
}

// Links is box's column of links: Links(box)[d] is the link a start's
// transfer from device d takes, -1 when d sends none — every device,
// at a blocking permute, which posts no transfer. It is nil for a
// group collective.
func (s *Schedule) Links(box int32) []int32 { return s.column(box, 0) }

// From is box's column of sources: From(box)[d] is the device d
// receives from at a start's done or at a blocking permute, -1 when it
// receives nothing. It is nil for a group collective. Shape inference
// gives a permute at most one pair per source and per target.
func (s *Schedule) From(box int32) []int32 { return s.column(box, 1) }

// column is column k of box's row.
func (s *Schedule) column(box int32, k int) []int32 {
	row := int(s.Comms[box].row)
	if row < 0 {
		return nil
	}
	at := (2*row + k) * s.n
	return s.cols[at : at+s.n : at+s.n]
}

// NewSchedule lowers c, which hlo.VerifyRing accepted for an n-device
// ring, into its schedule, pricing its wire on spec.
func NewSchedule(c *hlo.Computation, n int, spec machine.Spec) *Schedule {
	ops, comms, starts, permutes := size(c)
	s := &Schedule{n: n, spec: spec, Ops: make([]Op, 0, ops), Comms: make([]Comm, 0, comms), cols: make([]int32, 2*(starts+permutes)*n)}
	for i := range s.cols {
		s.cols[i] = -1
	}
	if starts > 0 {
		// A ring's two directions are 2n edges: room for them up front.
		s.Edges = make([]Edge, 0, 2*n)
	}
	s.lower(c, 1)
	slices.SortFunc(s.Edges, edgeCompare)
	for box := range s.Comms {
		if s.Ops[s.Comms[box].At].Kind == OpStart {
			links := s.Links(int32(box))
			for dst, src := range s.From(int32(box)) {
				if src >= 0 {
					link, _ := s.Link(int(src), dst)
					links[src] = int32(link)
				}
			}
		}
	}
	return s
}

// Link is the position in Edges of the edge src→dst, false when no
// start's transfer takes it.
func (s *Schedule) Link(src, dst int) (int, bool) {
	return slices.BinarySearchFunc(s.Edges, Edge{Src: src, Dst: dst}, edgeCompare)
}

// size counts the ops and communications lowering c appends — one op
// per instruction, and a loop's body and back-edge after its entry —
// and, of the communications, the starts and the blocking permutes:
// the rows of the column array.
func size(c *hlo.Computation) (ops, comms, starts, permutes int) {
	for i := 0; i < c.NumInstructions(); i++ {
		switch in := c.At(i); in.Op {
		case hlo.OpLoop:
			o, k, st, p := size(in.Body)
			ops, comms, starts, permutes = ops+o+1, comms+k, starts+st, permutes+p
		case hlo.OpCollectivePermuteStart:
			comms, starts = comms+1, starts+1
		case hlo.OpCollectivePermute:
			comms, permutes = comms+1, permutes+1
		case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll:
			comms++
		}
		ops++
	}
	return ops, comms, starts, permutes
}

func edgeCompare(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
}

// Row is one device's cost row with every local op priced by price, in
// the order a device executes them.
func (s *Schedule) Row(price func(*hlo.Instruction) float64) []float64 {
	row := make([]float64, 0, s.Locals)
	iter := 0
	for pc := 0; pc < len(s.Ops); pc++ {
		switch op := &s.Ops[pc]; op.Kind {
		case OpLocal:
			row = append(row, price(op.In))
		case OpLoop:
			iter = 0
			if op.Trips == 0 {
				pc = int(op.Jump)
			}
		case OpLoopEnd:
			if iter+1 < int(op.Trips) {
				iter++
				pc = int(op.Jump) - 1
			}
		}
	}
	return row
}

// Model runs the timing pass over the machine model's costs — every
// device's cost row priced by the spec the schedule was lowered on,
// spec.InstructionCost — with the modeled wire at scale 1: the step
// Simulate reads. slab is as Time's.
func (s *Schedule) Model(slab []obs.Span) (Breakdown, []obs.Span) {
	row := s.Row(s.spec.InstructionCost)
	cost := make([][]float64, s.n)
	for d := range cost {
		cost[d] = row
	}
	clk := s.NewClocks(nil, nil)
	return clk.Time(cost, 1, nil, slab)
}

// lower appends the ops of one instruction sequence that executes trips
// times a run, and counts what they execute.
func (s *Schedule) lower(c *hlo.Computation, trips int) {
	window := min(s.n, obs.TraceMaxDevices)
	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		s.executed += trips
		op := Op{In: in, Kind: OpLocal}
		switch in.Op {
		case hlo.OpParameter:
			op.Kind = OpParameter
		case hlo.OpConstant:
			op.Kind = OpConstant

		case hlo.OpCollectivePermuteStart:
			// NewSchedule resolves the links once the edges are sorted.
			bytes := in.Operands[0].ByteSize()
			op.Kind, op.Comm = OpStart, s.comm(Comm{row: int32(s.rows), Bytes: bytes, wire: s.spec.TransferTime(bytes, 1)})
			from := s.From(op.Comm)
			for _, p := range in.Pairs {
				from[p.Target] = int32(p.Source)
				s.edge(p.Source, p.Target, trips)
				if p.Source < window {
					s.Spans += trips
				}
			}
			s.rows++

		case hlo.OpCollectivePermuteDone:
			op.Kind, op.Comm = OpDone, s.startOf(in.Operands[0])

		case hlo.OpLoop:
			entry := len(s.Ops)
			s.Ops = append(s.Ops, Op{In: in, Kind: OpLoop, Trips: int32(in.TripCount)})
			s.lower(in.Body, trips*in.TripCount)
			s.Ops[entry].Jump = int32(len(s.Ops))
			s.Ops = append(s.Ops, Op{In: in, Kind: OpLoopEnd, Jump: int32(entry + 1), Trips: int32(in.TripCount)})
			continue

		case hlo.OpCollectivePermute:
			if s.all == nil {
				all := make([]int, s.n)
				for d := range all {
					all[d] = d
				}
				s.all = [][]int{all}
			}
			op.Kind, op.Comm = OpPermute, s.comm(Comm{row: int32(s.rows), Members: s.all, wire: s.spec.CollectiveTime(in)})
			from := s.From(op.Comm)
			for _, p := range in.Pairs {
				from[p.Target] = int32(p.Source)
			}
			s.rows++

		case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll:
			op.Kind, op.Comm = OpCollective, s.comm(Comm{row: -1, Members: in.Groups, wire: s.spec.CollectiveTime(in)})
		}
		switch op.Kind {
		case OpLocal:
			s.Locals += trips
			fallthrough
		case OpDone, OpCollective, OpPermute:
			// At most one compute-track span on each device in the
			// window.
			s.Spans += window * trips
		}
		s.Ops = append(s.Ops, op)
	}
}

// comm numbers the communication of the op being lowered.
func (s *Schedule) comm(cm Comm) int32 {
	cm.At = int32(len(s.Ops))
	s.Comms = append(s.Comms, cm)
	return int32(len(s.Comms) - 1)
}

// startOf is the mailbox number of start, which the schedule lowered
// before its done: a verified done reads its own sequence's start.
func (s *Schedule) startOf(start *hlo.Instruction) int32 {
	for i := len(s.Comms) - 1; ; i-- {
		if s.Ops[s.Comms[i].At].In == start {
			return int32(i)
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
// mailbox. A caller holds one per concurrent pass and reuses it, so a
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
	// last transfer ends; arrive[row*n+d] is when device d's transfer of
	// the start in that row (Comm.row) arrives, -1 when d receives
	// none; a blocking permute's row is unused.
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
	buf := make([]float64, 5*n+links+s.rows*n)
	var flight [][]float64
	if len(s.Edges) > 0 {
		flight = make([][]float64, n) // only a start puts a transfer in flight
	}
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
		flight:     flight,
	}
}

// Time runs the timing pass. cost[d][k] is the seconds the k-th local
// op device d executed took. A transfer's or collective's wire is its
// modeled seconds times scale (none at all at scale <= 0), and a
// transfer's lengthens by delay(link), link its edge's position in
// Edges, when delay is not nil; the pass asks for each link's transfers
// in order, once each. A traced pass — one handed a slab,
// Schedule.Spans long — records the spans of the first
// obs.TraceMaxDevices devices into slab[:0], past its end only at a
// MaxInFlight hold, and returns them in obs.SpanLess order; a nil slab
// records none.
func (c *Clocks) Time(cost [][]float64, scale float64, delay func(link int) float64, slab []obs.Span) (Breakdown, []obs.Span) {
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
	ops := s.Ops
	k, iter := 0, 0
	for pc := 0; pc < len(ops); pc++ {
		op := &ops[pc]
		name := op.In.Name
		switch op.Kind {
		case OpLoop:
			iter = 0
			if op.Trips == 0 {
				pc = int(op.Jump)
			}

		case OpLoopEnd:
			if iter+1 < int(op.Trips) {
				iter++
				pc = int(op.Jump) - 1
			}

		case OpLocal:
			for d := 0; d < n; d++ {
				t := cost[d][k]
				record(d, obs.TrackCompute, obs.CatCompute, name, now[d], t)
				now[d] += t
				c.Compute[d] += t
			}
			k++

		case OpStart:
			cm := &s.Comms[op.Comm]
			arr := c.arrive[int(cm.row)*n : int(cm.row+1)*n]
			for d := range arr {
				arr[d] = -1
			}
			for d, link := range s.Links(op.Comm) {
				if link < 0 {
					continue
				}
				tgt := s.Edges[link].Dst
				waitUntil(d, c.hold(d), obs.CatStall, name)
				t := wireOf(cm.wire)
				if delay != nil {
					t += delay(int(link))
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

		case OpDone:
			row := int(s.Comms[op.Comm].row)
			arr := c.arrive[row*n : (row+1)*n]
			for d := 0; d < n; d++ {
				if arr[d] < 0 {
					continue
				}
				c.stall.Observe(max(arr[d]-now[d], 0))
				waitUntil(d, arr[d], obs.CatStall, name)
			}

		case OpPermute:
			cm := &s.Comms[op.Comm]
			t := wireOf(cm.wire)
			copy(c.prev, now)
			for d, src := range s.From(op.Comm) {
				if src < 0 {
					continue
				}
				c.Wire[src] += t
				until := c.prev[src] + t
				c.collective.Observe(max(until-now[d], 0))
				waitUntil(d, until, obs.CatCollective, name)
			}

		case OpCollective:
			cm := &s.Comms[op.Comm]
			t := wireOf(cm.wire)
			for _, group := range cm.Members {
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
	if bound := c.s.spec.MaxInFlight; bound > 0 && len(f) >= bound {
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
