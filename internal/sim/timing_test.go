package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
)

// unitSpec prices every point-to-point transfer at exactly one second
// of wire and a g-member AllReduce at 2(g−1) seconds; with whole-second
// costs and scales every time the timing pass computes is exact.
func unitSpec(maxInFlight int) machine.Spec {
	return machine.Spec{Name: "unit", LinkLatency: 1, LinkBandwidth: math.Inf(1), MaxInFlight: maxInFlight}
}

// want is one expected span: device, category, the instruction by its
// position in what the case's program returns, start and duration.
type want struct {
	dev        int
	cat        string
	in         int
	start, dur float64
}

// TestTimingRules is the timing pass's rules, one table. Each case is a
// program, a hand-set cost table (cost[d] lists device d's local ops'
// costs in execution order), a wire scale and a delay, and the pass's
// exact result: every device's final clock, wire sent and exposed
// seconds, the spans of every device in the trace window, and the
// breakdown's transfer counts. Every case also checks what holds for
// any pass: the cost rows are the schedule's length, the spans fit the
// schedule's bound, a device's stall and collective spans sum to its
// exposed seconds, and the breakdown is the devices' clocks.
func TestTimingRules(t *testing.T) {
	pair := func(src, dst int) []hlo.SourceTargetPair { return []hlo.SourceTargetPair{{Source: src, Target: dst}} }
	var (
		C   = obs.CatCompute
		S   = obs.CatStall
		X   = obs.CatTransfer
		G   = obs.CatCollective
		row = func(costs ...float64) []float64 { return costs }
	)
	// posts builds k starts on pairs, each after a local op, then their
	// dones in order: [add₀, start₀, …, add_k-1, start_k-1, done₀, …].
	posts := func(k int, pairs []hlo.SourceTargetPair) func(c *hlo.Computation) []*hlo.Instruction {
		return func(c *hlo.Computation) []*hlo.Instruction {
			p := c.Parameter(0, "p", []int{2, 2})
			var ins, dones []*hlo.Instruction
			for i := 0; i < k; i++ {
				ins = append(ins, c.Add(p, p), c.CollectivePermuteStart(p, pairs))
			}
			for i := 0; i < k; i++ {
				dones = append(dones, c.CollectivePermuteDone(ins[2*i+1]))
			}
			ins = append(ins, dones...)
			c.Tuple(dones...)
			return ins
		}
	}
	// busyDone posts 0→1, computes, then takes the transfer: [add,
	// start, done].
	busyDone := func(c *hlo.Computation) []*hlo.Instruction {
		p := c.Parameter(0, "p", []int{2, 2})
		s := c.CollectivePermuteStart(p, pair(0, 1))
		x := c.Add(p, p)
		return []*hlo.Instruction{x, s, c.CollectivePermuteDone(s)}
	}
	// busyThen builds one local op, then the collective after it:
	// [add, collective].
	busyThen := func(collective func(c *hlo.Computation, x *hlo.Instruction) *hlo.Instruction) func(c *hlo.Computation) []*hlo.Instruction {
		return func(c *hlo.Computation) []*hlo.Instruction {
			a := c.Parameter(0, "a", []int{8, 4})
			x := c.Add(a, a)
			return []*hlo.Instruction{x, collective(c, x)}
		}
	}
	allReduce := func(groups ...[]int) func(c *hlo.Computation, x *hlo.Instruction) *hlo.Instruction {
		return func(c *hlo.Computation, x *hlo.Instruction) *hlo.Instruction { return c.AllReduce(x, groups) }
	}
	// 0 sends to 1 and 1 to 2: devices 0 and 3 have no source.
	permute := func(c *hlo.Computation, x *hlo.Instruction) *hlo.Instruction {
		return c.CollectivePermute(x, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 2}})
	}
	// loop builds a loop of trips whose body computes, posts 0→1 and
	// takes the transfer, then one local op after it: [body add, start,
	// done, tuple, loop, add after].
	loop := func(trips int) func(c *hlo.Computation) []*hlo.Instruction {
		return func(c *hlo.Computation) []*hlo.Instruction {
			body := hlo.NewComputation("body")
			p := body.Parameter(0, "p", []int{2, 2})
			a := body.Add(p, p)
			s := body.CollectivePermuteStart(a, pair(0, 1))
			d := body.CollectivePermuteDone(s)
			tuple := body.Tuple(d)
			x := c.Parameter(0, "x", []int{2, 2})
			l := c.Loop(body, max(trips, 1), 0, x)
			if trips == 0 {
				hlo.EditAttrs(l, func(a *hlo.Attrs) { a.TripCount = 0 })
			}
			return []*hlo.Instruction{a, s, d, tuple, l, c.Add(l, x)}
		}
	}

	for _, tc := range []struct {
		name     string
		n        int
		inFlight int // MaxInFlight; 0 is 8
		build    func(c *hlo.Computation) []*hlo.Instruction
		cost     [][]float64
		scale    float64
		delay    func(link int) float64

		now, wire, exposed []float64
		spans              []want
		async, peak        int
	}{
		{
			// A local op moves its device's clock by its cost; one that
			// costs nothing records no span.
			name: "local ops",
			n:    2,
			build: func(c *hlo.Computation) []*hlo.Instruction {
				p := c.Parameter(0, "p", []int{2, 2})
				x := c.Add(p, p)
				return []*hlo.Instruction{x, c.Add(x, x)}
			},
			cost:    [][]float64{row(1, 2), row(3, 0)},
			scale:   1,
			now:     []float64{3, 3},
			wire:    []float64{0, 0},
			exposed: []float64{0, 0},
			spans:   []want{{0, C, 0, 0, 1}, {0, C, 1, 1, 2}, {1, C, 0, 0, 3}},
		},
		{
			// A transfer's wire starts at its sender's clock or when the
			// wire ahead of it on the link ends, whichever is later: the
			// second, posted at 0.5, waits for the first; the third,
			// posted at 5 on an idle link, leaves at once. The receiver
			// stalls until each arrives.
			name:    "a link serves its transfers in order",
			n:       2,
			build:   posts(3, pair(0, 1)),
			cost:    [][]float64{row(0, 0.5, 4.5, 0), row(0, 0, 0, 0)},
			scale:   2,
			now:     []float64{5, 7},
			wire:    []float64{6, 0},
			exposed: []float64{0, 7},
			spans: []want{
				{0, C, 2, 0, 0.5}, {0, C, 4, 0.5, 4.5},
				{0, X, 1, 0, 2}, {0, X, 3, 2, 2}, {0, X, 5, 5, 2},
				{1, S, 6, 0, 2}, {1, S, 7, 2, 2}, {1, S, 8, 4, 3},
			},
			async: 3, peak: 2,
		},
		{
			// A delay lengthens its own transfer's wire and moves every
			// arrival behind it on the link.
			name:  "a delay lengthens its wire",
			n:     2,
			build: posts(2, pair(0, 1)),
			cost:  [][]float64{row(0, 0, 0), row(0, 0, 0)},
			scale: 2,
			delay: func() func(link int) float64 {
				k := 0
				return func(int) float64 {
					k++
					if k == 1 {
						return 3
					}
					return 0
				}
			}(),
			now:     []float64{0, 7},
			wire:    []float64{7, 0},
			exposed: []float64{0, 7},
			spans:   []want{{0, X, 1, 0, 5}, {0, X, 3, 5, 2}, {1, S, 4, 0, 5}, {1, S, 5, 5, 2}},
			async:   2, peak: 2,
		},
		{
			// Scale 0 injects no modeled wire: a transfer arrives as it
			// leaves and records no span.
			name:    "no wire at scale 0",
			n:       2,
			build:   posts(1, pair(0, 1)),
			cost:    [][]float64{row(1, 0), row(0, 0)},
			now:     []float64{1, 1},
			wire:    []float64{0, 0},
			exposed: []float64{0, 1},
			spans:   []want{{0, C, 0, 0, 1}, {1, S, 2, 0, 1}},
			async:   1, peak: 1,
		},
		{
			// A done behind its transfer's arrival moves on to it, and
			// the difference is exposed.
			name:    "a done behind its arrival stalls",
			n:       2,
			build:   busyDone,
			cost:    [][]float64{row(0), row(0.5)},
			scale:   2,
			now:     []float64{0, 2},
			wire:    []float64{2, 0},
			exposed: []float64{0, 1.5},
			spans:   []want{{0, X, 1, 0, 2}, {1, C, 0, 0, 0.5}, {1, S, 2, 0.5, 1.5}},
			async:   1, peak: 1,
		},
		{
			// A done whose clock is exactly at its arrival takes it with
			// no stall.
			name:    "a done exactly due takes at once",
			n:       2,
			build:   busyDone,
			cost:    [][]float64{row(0), row(2)},
			scale:   2,
			now:     []float64{0, 2},
			wire:    []float64{2, 0},
			exposed: []float64{0, 0},
			spans:   []want{{0, X, 1, 0, 2}, {1, C, 0, 0, 2}},
			async:   1, peak: 1,
		},
		{
			// A done past its arrival keeps its clock.
			name:    "a done past due keeps its clock",
			n:       2,
			build:   busyDone,
			cost:    [][]float64{row(0), row(3)},
			scale:   2,
			now:     []float64{0, 3},
			wire:    []float64{2, 0},
			exposed: []float64{0, 0},
			spans:   []want{{0, X, 1, 0, 2}, {1, C, 0, 0, 3}},
			async:   1, peak: 1,
		},
		{
			// A group collective ends every member's clock at the
			// group's latest clock plus its wire, 6 s for four members;
			// each member's span runs from its own clock, and each is
			// charged the wire.
			name:    "a group collective waits for its latest member",
			n:       4,
			build:   busyThen(allReduce([]int{0, 1, 2, 3})),
			cost:    [][]float64{row(1), row(3), row(2), row(5)},
			scale:   1,
			now:     []float64{11, 11, 11, 11},
			wire:    []float64{6, 6, 6, 6},
			exposed: []float64{10, 8, 9, 6},
			spans: []want{
				{0, C, 0, 0, 1}, {0, G, 1, 1, 10}, {1, C, 0, 0, 3}, {1, G, 1, 3, 8},
				{2, C, 0, 0, 2}, {2, G, 1, 2, 9}, {3, C, 0, 0, 5}, {3, G, 1, 5, 6},
			},
		},
		{
			// Groups end independently: 2 s of wire for a pair.
			name:    "groups end independently",
			n:       4,
			build:   busyThen(allReduce([]int{0, 1}, []int{2, 3})),
			cost:    [][]float64{row(1), row(3), row(2), row(5)},
			scale:   1,
			now:     []float64{5, 5, 7, 7},
			wire:    []float64{2, 2, 2, 2},
			exposed: []float64{4, 2, 5, 2},
			spans: []want{
				{0, C, 0, 0, 1}, {0, G, 1, 1, 4}, {1, C, 0, 0, 3}, {1, G, 1, 3, 2},
				{2, C, 0, 0, 2}, {2, G, 1, 2, 5}, {3, C, 0, 0, 5}, {3, G, 1, 5, 2},
			},
		},
		{
			// A blocking permute is timed per pair: each target is due
			// at its own source's clock plus the wire. Only the sources
			// are charged the wire, and a device with no source keeps
			// its clock.
			name:    "a blocking permute waits per pair",
			n:       4,
			build:   busyThen(permute),
			cost:    [][]float64{row(1), row(1), row(1), row(1)},
			scale:   3,
			now:     []float64{1, 4, 4, 1},
			wire:    []float64{3, 3, 0, 0},
			exposed: []float64{0, 3, 3, 0},
			spans: []want{
				{0, C, 0, 0, 1}, {1, C, 0, 0, 1}, {1, G, 1, 1, 3},
				{2, C, 0, 0, 1}, {2, G, 1, 1, 3}, {3, C, 0, 0, 1},
			},
		},
		{
			// A target already past due keeps its clock, and its own
			// target is due from it: the permute reads the clocks as
			// they were before it.
			name:    "a blocking permute target past due",
			n:       4,
			build:   busyThen(permute),
			cost:    [][]float64{row(1), row(9), row(1), row(1)},
			scale:   3,
			now:     []float64{1, 9, 12, 1},
			wire:    []float64{3, 3, 0, 0},
			exposed: []float64{0, 0, 11, 0},
			spans: []want{
				{0, C, 0, 0, 1}, {1, C, 0, 0, 9}, {2, C, 0, 0, 1}, {2, G, 1, 1, 11}, {3, C, 0, 0, 1},
			},
		},
		{
			// A bystander far ahead holds nobody back.
			name:    "a blocking permute ignores a bystander",
			n:       4,
			build:   busyThen(permute),
			cost:    [][]float64{row(1), row(1), row(1), row(50)},
			scale:   3,
			now:     []float64{1, 4, 4, 50},
			wire:    []float64{3, 3, 0, 0},
			exposed: []float64{0, 3, 3, 0},
			spans: []want{
				{0, C, 0, 0, 1}, {1, C, 0, 0, 1}, {1, G, 1, 1, 3},
				{2, C, 0, 0, 1}, {2, G, 1, 1, 3}, {3, C, 0, 0, 50},
			},
		},
		{
			// With MaxInFlight 2 transfers in flight at its third post,
			// the sender stalls until the oldest arrives, at 2, and the
			// stall is a span named for the start that waits; the third
			// leaves when the link frees, at 4.
			name:     "a sender holds at MaxInFlight",
			n:        2,
			inFlight: 2,
			build:    posts(3, pair(0, 1)),
			cost:     [][]float64{row(0, 0, 0, 0), row(0, 0, 0, 0)},
			scale:    2,
			now:      []float64{2, 6},
			wire:     []float64{6, 0},
			exposed:  []float64{2, 6},
			spans: []want{
				{0, S, 5, 0, 2},
				{0, X, 1, 0, 2}, {0, X, 3, 2, 2}, {0, X, 5, 4, 2},
				{1, S, 6, 0, 2}, {1, S, 7, 2, 2}, {1, S, 8, 4, 2},
			},
			async: 3, peak: 2,
		},
		{
			// A transfer that has arrived by the sender's clock no longer
			// counts: posting every 3 s, nobody holds.
			name:     "an arrived transfer leaves the flight",
			n:        2,
			inFlight: 2,
			build:    posts(3, pair(0, 1)),
			cost:     [][]float64{row(0, 3, 3, 0), row(0, 0, 0, 0)},
			scale:    2,
			now:      []float64{6, 8},
			wire:     []float64{6, 0},
			exposed:  []float64{0, 8},
			spans: []want{
				{0, C, 2, 0, 3}, {0, C, 4, 3, 3},
				{0, X, 1, 0, 2}, {0, X, 3, 3, 2}, {0, X, 5, 6, 2},
				{1, S, 6, 0, 2}, {1, S, 7, 2, 3}, {1, S, 8, 5, 3},
			},
			async: 3, peak: 1,
		},
		{
			// With MaxInFlight 1 two transfers on one link serialize
			// through the hold; device 1 sends and device 0 posts
			// nothing, so no transfer is device 0's.
			name:     "one in flight serializes with device 0 idle",
			n:        2,
			inFlight: 1,
			build:    posts(2, pair(1, 0)),
			cost:     [][]float64{row(0, 0, 0), row(0, 0, 0)},
			scale:    2,
			now:      []float64{4, 2},
			wire:     []float64{0, 4},
			exposed:  []float64{4, 2},
			spans: []want{
				{0, S, 4, 0, 2}, {0, S, 5, 2, 2},
				{1, S, 3, 0, 2}, {1, X, 1, 0, 2}, {1, X, 3, 2, 2},
			},
			async: 0, peak: 1,
		},
		{
			// A loop's body executes once per trip, its local ops taking
			// their costs from the row in execution order, and its
			// transfers queue on the link across trips.
			name:    "a loop executes its body per trip",
			n:       2,
			build:   loop(3),
			cost:    [][]float64{row(1, 0, 1, 0, 1, 0, 1), row(1, 0, 1, 0, 1, 0, 1)},
			scale:   2,
			now:     []float64{4, 8},
			wire:    []float64{6, 0},
			exposed: []float64{0, 4},
			spans: []want{
				{0, C, 0, 0, 1}, {0, C, 0, 1, 1}, {0, C, 0, 2, 1}, {0, C, 5, 3, 1},
				{0, X, 1, 1, 2}, {0, X, 1, 3, 2}, {0, X, 1, 5, 2},
				{1, C, 0, 0, 1}, {1, S, 2, 1, 2}, {1, C, 0, 3, 1}, {1, S, 2, 4, 1},
				{1, C, 0, 5, 1}, {1, S, 2, 6, 1}, {1, C, 5, 7, 1},
			},
			async: 3, peak: 2,
		},
		{
			// A zero-trip loop executes nothing.
			name:    "a zero-trip loop executes nothing",
			n:       2,
			build:   loop(0),
			cost:    [][]float64{row(1), row(2)},
			scale:   2,
			now:     []float64{1, 2},
			wire:    []float64{0, 0},
			exposed: []float64{0, 0},
			spans:   []want{{0, C, 5, 0, 1}, {1, C, 5, 0, 2}},
		},
		{
			// Devices beyond the trace window are timed and record no
			// span.
			name: "devices beyond the window record nothing",
			n:    obs.TraceMaxDevices + 1,
			build: func(c *hlo.Computation) []*hlo.Instruction {
				p := c.Parameter(0, "p", []int{2, 2})
				return []*hlo.Instruction{c.Add(p, p)}
			},
			cost: func() [][]float64 {
				cost := make([][]float64, obs.TraceMaxDevices+1)
				for d := range cost {
					cost[d] = row(float64(d + 1))
				}
				return cost
			}(),
			now:     []float64{1, 2, 3, 4, 5, 6, 7, 8, 9},
			wire:    make([]float64, 9),
			exposed: make([]float64, 9),
			spans: []want{
				{0, C, 0, 0, 1}, {1, C, 0, 0, 2}, {2, C, 0, 0, 3}, {3, C, 0, 0, 4},
				{4, C, 0, 0, 5}, {5, C, 0, 0, 6}, {6, C, 0, 0, 7}, {7, C, 0, 0, 8},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := hlo.NewComputation("timing")
			ins := tc.build(c)
			if err := c.VerifyRing(tc.n); err != nil {
				t.Fatal(err)
			}
			s := NewSchedule(c, tc.n, unitSpec(cmp.Or(tc.inFlight, 8)))
			for d, r := range tc.cost {
				if len(r) != s.Locals {
					t.Fatalf("device %d's cost row has %d entries, the schedule runs %d local ops", d, len(r), s.Locals)
				}
			}
			clk := s.NewClocks(nil, nil)
			slab := make([]obs.Span, s.Spans)
			b, spans := clk.Time(tc.cost, tc.scale, tc.delay, slab)
			if len(spans) > 0 && &spans[0] != &slab[0] {
				t.Fatalf("the pass outgrew the schedule's %d spans", s.Spans)
			}
			for _, got := range []struct {
				name      string
				got, want []float64
			}{{"clocks", clk.Now, tc.now}, {"wire", clk.Wire, tc.wire}, {"exposed", clk.Exposed, tc.exposed}} {
				if !slices.Equal(got.got, got.want) {
					t.Errorf("%s %v, want %v", got.name, got.got, got.want)
				}
			}
			var wantSpans []obs.Span
			for _, w := range tc.spans {
				track := obs.TrackCompute
				if w.cat == obs.CatTransfer {
					track = obs.TrackTransfer
				}
				wantSpans = append(wantSpans, obs.Span{Device: w.dev, Track: track, Cat: w.cat, Name: ins[w.in].Name, Start: w.start, Dur: w.dur})
			}
			slices.SortStableFunc(wantSpans, spanCompare)
			if !slices.Equal(spans, wantSpans) {
				t.Errorf("spans\n\t%v\nwant\n\t%v", spans, wantSpans)
			}

			waited := make([]float64, tc.n)
			for _, sp := range spans {
				if sp.Cat == obs.CatStall || sp.Cat == obs.CatCollective {
					waited[sp.Device] += sp.Dur
				}
			}
			var step, compute, wire, exposed float64
			for d := 0; d < tc.n; d++ {
				if d < obs.TraceMaxDevices && math.Abs(waited[d]-clk.Exposed[d]) > 1e-9 {
					t.Errorf("device %d's stall and collective spans sum to %g, its exposed seconds to %g", d, waited[d], clk.Exposed[d])
				}
				step = max(step, clk.Now[d])
				compute += clk.Compute[d] / float64(tc.n)
				wire += clk.Wire[d] / float64(tc.n)
				exposed += clk.Exposed[d] / float64(tc.n)
			}
			if w := (Breakdown{StepTime: step, Compute: compute, CollectiveWire: wire, Exposed: exposed, AsyncTransfers: tc.async, PeakInFlight: tc.peak}); b != w {
				t.Errorf("breakdown %+v, want %+v", b, w)
			}
		})
	}
}
