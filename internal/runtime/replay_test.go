package runtime

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/sim"
)

// The timing rules through a compiled Executable, each as a table over
// a hand-set cost table: the timing pass runs on the test's goroutine
// over the Executable's schedule, with the run's fault injector and no
// device goroutine, mailbox or measured cost. (The rules' own table is
// sim's TestTimingRules.) unitSpec prices every point-to-point transfer
// at exactly one second of wire and a g-member AllReduce at 2(g−1)
// seconds, and the costs are whole seconds, so every expected time
// below is exact.
var unitSpec = machine.Spec{Name: "unit", LinkLatency: 1, LinkBandwidth: math.Inf(1), MaxInFlight: 8}

// replayed is one replay's output: the breakdown, every device's final
// clock, wire sent and exposed seconds, and the spans of every device.
type replayed struct {
	b                     sim.Breakdown
	clocks, wire, exposed []float64
	spans                 []obs.Span
}

// replayOn compiles c for n devices on spec and times it at scale over
// cost — cost[d] lists device d's local ops' costs in execution order —
// under the fault plan faults. The spans go into a slab of the
// schedule's bound, which the pass must not outgrow.
func replayOn(t *testing.T, c *hlo.Computation, n int, spec machine.Spec, cost [][]float64, scale float64, faults string) replayed {
	t.Helper()
	x, err := Compile(c, n, spec)
	if err != nil {
		t.Fatal(err)
	}
	for d, row := range cost {
		if len(row) != x.sched.Locals {
			t.Fatalf("device %d's cost row has %d entries, the tape runs %d local ops", d, len(row), x.sched.Locals)
		}
	}
	var inj *injector
	if faults != "" {
		plan, err := ParseFaults(faults)
		if err != nil {
			t.Fatal(err)
		}
		inj = newInjector(plan, x.sched, n)
	}
	clk := x.sched.NewClocks(nil, nil)
	slab := make([]obs.Span, x.sched.Spans)
	b, spans := clk.Time(cost, scale, inj.delay, slab)
	if len(spans) > 0 && &spans[0] != &slab[0] {
		t.Fatalf("the pass outgrew the schedule's %d spans", x.sched.Spans)
	}
	return replayed{b: b, clocks: clk.Now, wire: clk.Wire, exposed: clk.Exposed, spans: spans}
}

// only returns the spans of one device and category, in order.
func only(spans []obs.Span, dev int, cat string) []obs.Span {
	var out []obs.Span
	for _, sp := range spans {
		if sp.Device == dev && sp.Cat == cat {
			out = append(out, sp)
		}
	}
	return out
}

func spanString(sp obs.Span) string { return fmt.Sprintf("%s [%g, +%g]", sp.Name, sp.Start, sp.Dur) }

// TestLinkDeliversNoEarlierThanItsDue pins the link rule: a transfer's
// wire starts at its sender's clock or when the wire ahead of it on the
// link ends, whichever is later, so of k transfers posted half a wire
// apart each arrives one wire after the one ahead of it, and the last,
// posted once the link has gone idle, one wire after its post. An
// injected delay lengthens its own transfer's wire and moves every
// arrival behind it; a drop is the fabric's decision and takes no wire
// from the link. Device 0 records each wire as a transfer span, and
// device 1, taking the transfers in order, stalls exactly until each
// arrives.
func TestLinkDeliversNoEarlierThanItsDue(t *testing.T) {
	const k, wire = 6, 2.0
	c := hlo.NewComputation("one-link")
	p := c.Parameter(0, "p", []int{2, 2})
	var starts []*hlo.Instruction
	for i := 0; i < k; i++ {
		c.Add(p, p) // the sender's clock between posts
		starts = append(starts, c.CollectivePermuteStart(p, []hlo.SourceTargetPair{{Source: 0, Target: 1}}))
	}
	var dones []*hlo.Instruction
	for _, s := range starts {
		dones = append(dones, c.CollectivePermuteDone(s))
	}
	c.Tuple(dones...)

	// Device 0 posts transfer i at clock i, and the last at 60, when the
	// link is long idle; device 1 computes nothing.
	posted := []float64{0, 1, 2, 3, 4, 60}
	cost := [][]float64{make([]float64, k+1), make([]float64, k+1)}
	for i := 1; i < k; i++ {
		cost[0][i] = posted[i] - posted[i-1]
	}
	for _, tc := range []struct {
		name, faults string
		extra        map[int]float64 // injected delay by transfer
	}{
		{"clean", "", nil},
		{"delay", "delay:link:0-1:3s@2", map[int]float64{2: 3}},
		{"drop", "drop:link:0-1:2,delay:link:0-1:3s@3", map[int]float64{3: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := replayOn(t, c, 2, unitSpec, cost, wire, tc.faults)
			transfers, stalls := only(r.spans, 0, obs.CatTransfer), only(r.spans, 1, obs.CatStall)
			if len(transfers) != k {
				t.Fatalf("%d transfer spans, want %d", len(transfers), k)
			}
			free, clock := 0.0, 0.0
			var wantStalls []obs.Span
			for i := 0; i < k; i++ {
				start := max(posted[i], free)
				due := start + wire + tc.extra[i]
				free = due
				if sp := transfers[i]; sp.Start != start || sp.Dur != due-start {
					t.Errorf("transfer %d's span is %s, want [%g, +%g]", i, spanString(sp), start, due-start)
				}
				if due > clock {
					wantStalls = append(wantStalls, obs.Span{Name: dones[i].Name, Start: clock, Dur: due - clock})
					clock = due
				}
			}
			if len(stalls) != len(wantStalls) {
				t.Fatalf("device 1 stalls %d times, want %d: %v", len(stalls), len(wantStalls), stalls)
			}
			for i, sp := range stalls {
				if w := wantStalls[i]; sp.Name != w.Name || sp.Start != w.Start || sp.Dur != w.Dur {
					t.Errorf("device 1's stall %d is %s, want %s", i, spanString(sp), spanString(w))
				}
			}
			if r.clocks[1] != clock || r.b.StepTime != max(clock, posted[k-1]) {
				t.Errorf("device 1's clock ends at %g and the step at %g, want %g and %g", r.clocks[1], r.b.StepTime, clock, max(clock, posted[k-1]))
			}
		})
	}
}

// TestPastDueDoneTakesAtOnce: a done whose device's clock is already at
// or past its transfer's arrival takes it with no stall, and its clock
// stays where it was; one whose clock is behind moves on to the arrival
// exactly, and the difference is exposed.
func TestPastDueDoneTakesAtOnce(t *testing.T) {
	const wire = 2.0
	c := hlo.NewComputation("one-done")
	p := c.Parameter(0, "p", []int{2, 2})
	s := c.CollectivePermuteStart(p, []hlo.SourceTargetPair{{Source: 0, Target: 1}})
	c.Add(p, p) // what device 1 computes while the transfer is on the wire
	c.CollectivePermuteDone(s)
	for _, tc := range []struct {
		name        string
		busy, clock float64 // device 1's Add, and its clock after the done
		stall       float64
	}{
		{"behind", 0.5, wire, wire - 0.5},
		{"exactly due", wire, wire, 0},
		{"past due", wire + 1, wire + 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := replayOn(t, c, 2, unitSpec, [][]float64{{0}, {tc.busy}}, wire, "")
			stalls := only(r.spans, 1, obs.CatStall)
			if r.clocks[1] != tc.clock {
				t.Errorf("device 1's clock ends at %g, want %g", r.clocks[1], tc.clock)
			}
			if tc.stall == 0 && len(stalls) != 0 || tc.stall > 0 && (len(stalls) != 1 || stalls[0].Start != tc.busy || stalls[0].Dur != tc.stall) {
				t.Errorf("device 1 stalls %v, want %g from %g", stalls, tc.stall, tc.busy)
			}
			if r.b.Exposed != tc.stall/2 {
				t.Errorf("exposed %g a device, want %g", r.b.Exposed, tc.stall/2)
			}
		})
	}
}

// TestBlockingCollectiveWaitsOutItsDue: a group collective ends every
// member's clock at the group's latest clock plus the collective's
// wire, each member's collective span runs from its own clock to there,
// and every member is charged the wire. Groups end independently.
func TestBlockingCollectiveWaitsOutItsDue(t *testing.T) {
	const n = 4
	busy := []float64{1, 3, 2, 5}
	for _, tc := range []struct {
		name   string
		groups [][]int
		end    []float64 // each device's clock afterwards
		wire   float64   // each member's wire
	}{
		// 2(g−1) seconds of wire: 6 for the whole ring, 2 for pairs.
		{"one group", [][]int{{0, 1, 2, 3}}, []float64{11, 11, 11, 11}, 6},
		{"two groups", [][]int{{0, 1}, {2, 3}}, []float64{5, 5, 7, 7}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := hlo.NewComputation("collective")
			a := c.Parameter(0, "a", []int{8, 4})
			c.AllReduce(c.Add(a, a), tc.groups)
			cost := make([][]float64, n)
			for d := range cost {
				cost[d] = []float64{busy[d]}
			}
			r := replayOn(t, c, n, unitSpec, cost, 1, "")
			exposed, step := 0.0, 0.0
			for d := 0; d < n; d++ {
				if r.clocks[d] != tc.end[d] {
					t.Errorf("device %d's clock ends at %g, want %g", d, r.clocks[d], tc.end[d])
				}
				spans := only(r.spans, d, obs.CatCollective)
				if len(spans) != 1 || spans[0].Start != busy[d] || spans[0].Dur != tc.end[d]-busy[d] {
					t.Errorf("device %d's collective spans are %v, want one [%g, +%g]", d, spans, busy[d], tc.end[d]-busy[d])
				}
				exposed += (tc.end[d] - busy[d]) / n
				step = max(step, tc.end[d])
			}
			if r.b.CollectiveWire != tc.wire || r.b.Exposed != exposed || r.b.StepTime != step {
				t.Errorf("breakdown %+v, want wire %g, exposed %g and step %g", r.b, tc.wire, exposed, step)
			}
		})
	}
}

// TestPastDueCollectiveTakesAtOnce: a blocking CollectivePermute is
// timed per pair, as the simulator prices it. Each target's clock moves
// on to its own source's clock plus the wire, or stays where it was
// when it is already past that; a device with no source keeps its clock
// whatever the others do. Only the sources are charged the wire: a
// permute that reaches only some devices puts no wire on the others.
// Here 0 sends to 1 and 1 to 2; devices 0 and 3 have no source.
func TestPastDueCollectiveTakesAtOnce(t *testing.T) {
	const n, wire = 4, 3.0
	c := hlo.NewComputation("partial-permute")
	a := c.Parameter(0, "a", []int{8, 4})
	c.CollectivePermute(c.Add(a, a), []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 2}})
	for _, tc := range []struct {
		name string
		busy []float64
		end  []float64
	}{
		{"every target waits", []float64{1, 1, 1, 1}, []float64{1, 4, 4, 1}},
		{"a target past due", []float64{1, 9, 1, 1}, []float64{1, 9, 12, 1}},
		{"a bystander far ahead", []float64{1, 1, 1, 50}, []float64{1, 4, 4, 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cost := make([][]float64, n)
			for d := range cost {
				cost[d] = []float64{tc.busy[d]}
			}
			r := replayOn(t, c, n, unitSpec, cost, wire, "")
			exposed := 0.0
			for d := 0; d < n; d++ {
				if r.clocks[d] != tc.end[d] {
					t.Errorf("device %d's clock ends at %g, want %g", d, r.clocks[d], tc.end[d])
				}
				sent := 0.0
				if d <= 1 { // the sources
					sent = wire
				}
				if r.wire[d] != sent {
					t.Errorf("device %d is charged %g of wire, want %g", d, r.wire[d], sent)
				}
				wait := tc.end[d] - tc.busy[d]
				spans := only(r.spans, d, obs.CatCollective)
				if wait == 0 && len(spans) != 0 || wait > 0 && (len(spans) != 1 || spans[0].Start != tc.busy[d] || spans[0].Dur != wait) {
					t.Errorf("device %d's collective spans are %v, want %g from %g", d, spans, wait, tc.busy[d])
				}
				exposed += wait / n
			}
			if want := 2 * wire / n; r.b.CollectiveWire != want || r.b.Exposed != exposed {
				t.Errorf("wire %g and exposed %g a device, want %g (the two sources' wire) and %g", r.b.CollectiveWire, r.b.Exposed, want, exposed)
			}
		})
	}
}

// TestReplayHoldsAtMaxInFlight: a sender with MaxInFlight transfers in
// flight waits, before it posts the next, until the oldest arrives —
// exposed time, recorded as a stall span named for the start that
// waits — and a transfer that has arrived by the sender's clock no
// longer counts. PeakInFlight
// is the most any device had in flight, and AsyncTransfers counts
// device 0's posts.
func TestReplayHoldsAtMaxInFlight(t *testing.T) {
	const wire = 2.0
	spec := unitSpec
	spec.MaxInFlight = 2
	for _, tc := range []struct {
		name        string
		pairs       []hlo.SourceTargetPair
		gap         float64 // the sender's compute between posts
		depart      float64 // the third transfer's departure
		hold        float64 // the sender's exposed time, all of it the hold
		peak, async int
	}{
		// Arrivals 2 and 4 are both in flight at the third post: device 0
		// waits until 2, and the third departs when the link frees at 4.
		{"held", []hlo.SourceTargetPair{{Source: 0, Target: 1}}, 0, 4, 2, 2, 3},
		// Posting every 3 s, each transfer has arrived by the next post.
		{"arrived", []hlo.SourceTargetPair{{Source: 0, Target: 1}}, 3, 6, 0, 1, 3},
		// Device 1 sends and device 0 does not: no post of device 0's.
		{"device 0 idle", []hlo.SourceTargetPair{{Source: 1, Target: 0}}, 0, 4, 2, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := hlo.NewComputation("in-flight")
			p := c.Parameter(0, "p", []int{2, 2})
			var starts []*hlo.Instruction
			for i := 0; i < 3; i++ {
				c.Add(p, p)
				starts = append(starts, c.CollectivePermuteStart(p, tc.pairs))
			}
			var dones []*hlo.Instruction
			for _, s := range starts {
				dones = append(dones, c.CollectivePermuteDone(s))
			}
			c.Tuple(dones...)
			row := []float64{0, tc.gap, tc.gap, 0}
			r := replayOn(t, c, 2, spec, [][]float64{row, row}, wire, "")
			src := tc.pairs[0].Source
			transfers := only(r.spans, src, obs.CatTransfer)
			if len(transfers) != 3 || transfers[2].Start != tc.depart {
				t.Fatalf("device %d's transfers are %v, want the third to depart at %g", src, transfers, tc.depart)
			}
			if r.exposed[src] != tc.hold {
				t.Errorf("device %d's hold exposes %g, want %g", src, r.exposed[src], tc.hold)
			}
			held := 0.0
			for _, sp := range only(r.spans, src, obs.CatStall) {
				if sp.Name != starts[2].Name {
					t.Errorf("the sender stalls at %s, want only at the third start", spanString(sp))
				}
				held += sp.Dur
			}
			if held != tc.hold {
				t.Errorf("device %d's stall spans hold %g, want %g", src, held, tc.hold)
			}
			if r.b.PeakInFlight != tc.peak || r.b.AsyncTransfers != tc.async {
				t.Errorf("peak in flight %d and async transfers %d, want %d and %d", r.b.PeakInFlight, r.b.AsyncTransfers, tc.peak, tc.async)
			}
		})
	}
}

// TestHoldRecordsPastTheSlab: the schedule's span count leaves no room
// for a MaxInFlight hold, so a pass that meets one on a full slab
// appends past it. Two devices swap MaxInFlight+1 transfers over a
// 1000 s wire, each posted after an Add: device 0's cost 1 s, device
// 1's 100 s. Every local op records a span and every transfer one, each
// device holds once at its last post — device 0 until 1001, device 1
// until 1100 — and every done stalls but device 1's first, whose
// transfer arrived at 1001: one span more than the slab holds.
func TestHoldRecordsPastTheSlab(t *testing.T) {
	posts := unitSpec.MaxInFlight + 1
	c := hlo.NewComputation("hold-past-the-slab")
	p := c.Parameter(0, "p", []int{2, 2})
	swap := []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}}
	var starts, dones []*hlo.Instruction
	for i := 0; i < posts; i++ {
		starts = append(starts, c.CollectivePermuteStart(c.Add(p, p), swap))
	}
	for _, s := range starts {
		dones = append(dones, c.CollectivePermuteDone(s))
	}
	c.Tuple(dones...)
	x, err := Compile(c, 2, unitSpec)
	if err != nil {
		t.Fatal(err)
	}
	cost := [][]float64{make([]float64, posts+1), make([]float64, posts+1)}
	for k := range cost[0] {
		cost[0][k], cost[1][k] = 1, 100
	}
	cost[1][posts] = 1 // the tuple
	slab := make([]obs.Span, x.sched.Spans)
	clk := x.sched.NewClocks(nil, nil)
	_, spans := clk.Time(cost, 1000, nil, slab)
	if len(spans) != len(slab)+1 {
		t.Fatalf("%d spans for a slab of %d, want one more", len(spans), len(slab))
	}
	last := starts[posts-1].Name
	var holds []obs.Span
	for _, sp := range spans {
		if sp.Cat == obs.CatStall && sp.Name == last {
			holds = append(holds, sp)
		}
	}
	want := []obs.Span{
		{Device: 0, Track: obs.TrackCompute, Cat: obs.CatStall, Name: last, Start: float64(posts), Dur: 1001 - float64(posts)},
		{Device: 1, Track: obs.TrackCompute, Cat: obs.CatStall, Name: last, Start: 100 * float64(posts), Dur: 1100 - 100*float64(posts)},
	}
	if !slices.Equal(holds, want) {
		t.Errorf("holds %v, want %v", holds, want)
	}
}

// TestReplayScalesTheWireAndAddsDelays: a run's wire is the op's
// modeled seconds times the run's TimeScale, plus the plan's delays
// with their seeded jitter; TimeScale 0 injects no modeled wire, and a
// delay still lengthens its transfer.
func TestReplayScalesTheWireAndAddsDelays(t *testing.T) {
	c := hlo.NewComputation("one-transfer")
	p := c.Parameter(0, "p", []int{2, 2})
	c.CollectivePermuteDone(c.CollectivePermuteStart(p, []hlo.SourceTargetPair{{Source: 0, Target: 1}}))
	jittered := func() float64 {
		x, err := Compile(c, 2, unitSpec)
		if err != nil {
			t.Fatal(err)
		}
		plan := &FaultPlan{Faults: []Fault{{Kind: FaultDelay, Src: 0, Dst: 1, K: -1, Delay: time.Second, Jitter: time.Second}}}
		link, _ := x.sched.Link(0, 1)
		return newInjector(plan, x.sched, 2).delay(link)
	}()
	if jittered < 1 || jittered >= 2 {
		t.Fatalf("a 1 s delay with 1 s of jitter adds %g s, want [1, 2)", jittered)
	}
	for _, tc := range []struct {
		name   string
		scale  float64
		faults string
		wire   float64
	}{
		{"scaled", 5, "", 5},
		{"no wire", 0, "", 0},
		{"negative", -1, "", 0},
		{"delay at no wire", 0, "delay:link:0-1:2s", 2},
		{"delay and jitter", 5, "delay:link:0-1:1s:1s", 5 + jittered},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := replayOn(t, c, 2, unitSpec, [][]float64{{}, {}}, tc.scale, tc.faults)
			if r.b.CollectiveWire*2 != tc.wire || r.b.StepTime != tc.wire {
				t.Errorf("wire %g and step %g, want %g for both", r.b.CollectiveWire*2, r.b.StepTime, tc.wire)
			}
		})
	}
}

// TestWarmReplayAllocatesNothing: the timing pass's state lives in the
// run context and a traced run's spans go into the slab it is handed,
// so a pass after the first allocates nothing, traced or not.
func TestWarmReplayAllocatesNothing(t *testing.T) {
	const n = 4
	c := hlo.NewComputation("warm")
	a := c.Parameter(0, "a", []int{8, 4})
	ring := []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 2}, {Source: 2, Target: 3}, {Source: 3, Target: 0}}
	s := c.CollectivePermuteStart(c.Add(a, a), ring)
	c.AllReduce(c.Add(c.CollectivePermuteDone(s), a), [][]int{{0, 1, 2, 3}})
	x, err := Compile(c, n, unitSpec)
	if err != nil {
		t.Fatal(err)
	}
	cost := make([][]float64, n)
	for d := range cost {
		cost[d] = []float64{1, 2}
	}
	clk := x.sched.NewClocks(rtStallSpans, rtCollectiveSpans)
	var inj *injector
	for _, slab := range [][]obs.Span{nil, make([]obs.Span, x.sched.Spans)} {
		clk.Time(cost, 3, inj.delay, slab)
		if allocs := testing.AllocsPerRun(20, func() { clk.Time(cost, 3, inj.delay, slab) }); allocs != 0 {
			t.Errorf("a warm pass, traced %v, allocates %v times, want none", slab != nil, allocs)
		}
	}
}
