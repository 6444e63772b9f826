package runtime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// mustEngine compiles c for n devices and builds one run's engine over
// the Executable.
func mustEngine(t *testing.T, c *hlo.Computation, n int) *engine {
	t.Helper()
	x, err := Compile(c, n, machine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEditAfterCompileReachesNeitherDataNorTiming pins the one
// lowering: an Executable runs and times the program as Compile lowered
// it into its schedule. A permute's pair edited after Compile — 0→1
// made 0→3, on a private copy of the instruction's attributes — reaches
// neither the data path (device 1 still receives device 0's value, and
// every device's result is the unedited run's) nor the timing: a traced
// run at TimeScale 1 under the model's costs reads the unedited run's
// Breakdown and every one of its spans. It holds for a start, whose
// transfer the fabric carries, and for a blocking permute, which the
// rendezvous evaluates with the permute kernel.
func TestEditAfterCompileReachesNeitherDataNorTiming(t *testing.T) {
	pair := []hlo.SourceTargetPair{{Source: 0, Target: 1}}
	for _, tc := range []struct {
		name string
		// build returns the instruction whose attributes the edit
		// copies. An unedited run records spans spans, the last device
		// 1's wait, of category cat.
		build func(c *hlo.Computation, a *hlo.Instruction) *hlo.Instruction
		spans int
		cat   string
	}{
		{"start", func(c *hlo.Computation, a *hlo.Instruction) *hlo.Instruction {
			start := c.CollectivePermuteStart(a, pair)
			c.CollectivePermuteDone(start)
			return start
		}, 2, obs.CatStall}, // device 0's transfer, device 1's stall
		{"blocking permute", func(c *hlo.Computation, a *hlo.Instruction) *hlo.Instruction {
			return c.CollectivePermute(a, pair)
		}, 1, obs.CatCollective},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := hlo.NewComputation("edited-pair")
			a := c.Parameter(0, "a", []int{2, 2})
			edited := tc.build(c, a)
			spec := machine.TPUv4()
			x, err := Compile(c, 4, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer ModelCosts(spec)()
			rng := rand.New(rand.NewSource(5))
			args := [][]*tensor.Tensor{make([]*tensor.Tensor, 4)}
			for d := range args[0] {
				args[0][d] = tensor.Rand(rng, 2, 2)
			}
			type run struct {
				values []*tensor.Tensor
				b      sim.Breakdown
				spans  []obs.Span
			}
			execute := func(what string) run {
				res, err := x.Run(context.Background(), args, Options{TimeScale: 1, Trace: true})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				defer res.Release()
				r := run{b: res.Breakdown, spans: slices.Clone(res.Trace)}
				for _, v := range res.Values {
					r.values = append(r.values, v.Clone())
				}
				return r
			}
			want := execute("unedited run")
			if len(want.spans) != tc.spans || want.spans[tc.spans-1].Device != 1 || want.spans[tc.spans-1].Cat != tc.cat {
				t.Fatalf("the unedited run's spans %+v: want %d, device 1's %s last", want.spans, tc.spans, tc.cat)
			}

			// The edit goes to a private copy of the attributes, which a
			// done shares until then.
			hlo.EditAttrs(edited, func(a *hlo.Attrs) { a.Pairs[0].Target = 3 })
			got := execute("run after the instruction's pairs were edited")
			if !got.values[1].Equal(args[0][0]) {
				t.Error("device 1 no longer receives device 0's value")
			}
			for d := range want.values {
				if !got.values[d].Equal(want.values[d]) {
					t.Errorf("device %d's result moved with the edit", d)
				}
			}
			if got.b != want.b {
				t.Errorf("the edit moved the breakdown: %+v, unedited %+v", got.b, want.b)
			}
			if !slices.Equal(got.spans, want.spans) {
				t.Errorf("the edit moved the spans: %+v, unedited %+v", got.spans, want.spans)
			}
		})
	}
}

// TestMailboxMapsBounded pins the fabric's watermark pruning: a loop
// executing the same permute start many times must leave the mailbox
// and delivered maps empty and the watermark map at one entry per
// distinct start — O(in-flight) bookkeeping, not one entry per
// instance for the life of the run. Before pruning, each consumed
// instance left its delivered mark behind forever, so this loop would
// end with as many entries as iterations.
func TestMailboxMapsBounded(t *testing.T) {
	const iters = 64
	body := hlo.NewComputation("body")
	p0 := body.Parameter(0, "p0", []int{4})
	start := body.CollectivePermuteStart(p0, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}})
	done := body.CollectivePermuteDone(start)
	body.Tuple(done)

	c := hlo.NewComputation("bounded")
	x := c.Parameter(0, "x", []int{4})
	c.Loop(body, iters, 0, x)

	e := mustEngine(t, c, 2)
	rng := rand.New(rand.NewSource(3))
	args := [][]*tensor.Tensor{{tensor.Rand(rng, 4), tensor.Rand(rng, 4)}}
	if _, err := e.run(context.Background(), args, time.Now()); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		mail, delivered, marks := e.fabric.mailboxSizes(d)
		if mail != 0 || delivered != 0 {
			t.Fatalf("device %d: %d mailbox and %d delivered entries survive the run, want 0/0", d, mail, delivered)
		}
		if marks > 1 {
			t.Fatalf("device %d: %d watermark entries for 1 distinct start across %d instances", d, marks, iters)
		}
	}
}

// TestInjectorJitterDeterministic pins the seeded jitter streams: the
// same plan always produces the same per-link jitter sequence, and a
// different seed produces a different one.
func TestInjectorJitterDeterministic(t *testing.T) {
	plan := func(seed int64) *FaultPlan {
		return &FaultPlan{Seed: seed, Faults: []Fault{
			{Kind: FaultDelay, Src: 0, Dst: 1, K: -1, Delay: time.Millisecond, Jitter: time.Millisecond},
			{Kind: FaultDelay, Src: 1, Dst: 2, K: -1, Delay: time.Millisecond, Jitter: time.Millisecond},
		}}
	}
	c := hlo.NewComputation("two-links")
	a := c.Parameter(0, "a", []int{2, 2})
	c.CollectivePermuteDone(c.CollectivePermuteStart(a, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 2}}))
	x, err := Compile(c, 3, machine.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	draw := func(p *FaultPlan) [][3]float64 {
		inj := newInjector(p, x.sched, 3)
		var out [][3]float64
		for _, edge := range [][2]int{{0, 1}, {1, 2}} {
			link, _ := x.sched.Link(edge[0], edge[1])
			lf := &inj.links[link]
			out = append(out, [3]float64{lf.rng.Float64(), lf.rng.Float64(), lf.rng.Float64()})
		}
		return out
	}
	first, again := draw(plan(7)), draw(plan(7))
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("same seed, different jitter stream on edge %d: %v vs %v", i, first[i], again[i])
		}
	}
	other := draw(plan(8))
	if first[0] == other[0] && first[1] == other[1] {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

// oneLink compiles a program with one transfer, device 0 to device 1,
// and returns the TimeScale at which that transfer injects wire.
func oneLink(t *testing.T, wire time.Duration) (*Executable, float64) {
	t.Helper()
	c := hlo.NewComputation("one-link")
	a := c.Parameter(0, "a", []int{2, 2})
	start := c.CollectivePermuteStart(a, []hlo.SourceTargetPair{{Source: 0, Target: 1}})
	c.CollectivePermuteDone(start)
	x, err := Compile(c, 2, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	return x, wire.Seconds() / x.spec.TransferTime(x.sched.Comms[0].Bytes, 1)
}

// TestDelayLengthensItsWire: an injected delay is wire in the replay,
// not a wait. On either transport the delayed run succeeds with the
// interpreter's values, the delayed transfer's span is exactly its wire
// plus the delay, and the done that takes it stalls for exactly as
// long on device 1's clock.
func TestDelayLengthensItsWire(t *testing.T) {
	const ask, delay = 2 * time.Millisecond, 3 * time.Millisecond
	x, scale := oneLink(t, ask)
	plan, err := ParseFaults("delay:link:0-1:3ms")
	if err != nil {
		t.Fatal(err)
	}
	args := [][]*tensor.Tensor{{tensor.Rand(rand.New(rand.NewSource(7)), 2, 2)}}
	for _, tr := range []TransportKind{TransportChan, TransportProc} {
		opts := Options{TimeScale: scale, Trace: true, Faults: plan, Transport: tr}
		res, err := x.Run(context.Background(), args, opts)
		if err != nil {
			t.Fatalf("%s: the delayed run failed: %v", tr, err)
		}
		if err := CheckInterpreter(x.comp, x.n, args, res); err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		want := x.spec.TransferTime(x.sched.Comms[0].Bytes, 1)*scale + delay.Seconds()
		var spans []string
		for _, sp := range res.Trace {
			ok := sp.Start == 0 && sp.Dur == want
			switch {
			case sp.Cat == obs.CatTransfer && sp.Device == 0, sp.Cat == obs.CatStall && sp.Device == 1:
			default:
				ok = false
			}
			if !ok {
				spans = append(spans, fmt.Sprintf("%+v", sp))
			}
		}
		if len(res.Trace) != 2 || len(spans) != 0 {
			t.Errorf("%s: want one transfer span on device 0 and one stall on device 1, each [0, +%.9fs]; got %d spans, unexpected %v",
				tr, want, len(res.Trace), spans)
		}
		res.Release()
	}
}

// TestBreakdownWireCountsDelays: the breakdown's wire is the replay's.
// Under a delay fault on link 0→1, CollectiveWire times the device
// count is the trace's transfer spans — each parcel's wire, its delay
// included — plus every member's wire for the blocking collective, on
// both transports.
func TestBreakdownWireCountsDelays(t *testing.T) {
	const n = 2
	c := hlo.NewComputation("wire-sum")
	a := c.Parameter(0, "a", []int{2, 2})
	start := c.CollectivePermuteStart(a, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}})
	c.AllReduce(c.CollectivePermuteDone(start), [][]int{{0, 1}})
	x, err := Compile(c, n, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	var permute, collective float64 // modeled seconds
	for _, op := range x.sched.Ops {
		switch op.Kind {
		case sim.OpStart:
			permute = x.spec.TransferTime(x.sched.Comms[op.Comm].Bytes, 1)
		case sim.OpCollective:
			collective += x.spec.CollectiveTime(op.In)
		}
	}
	scale := (2 * time.Millisecond).Seconds() / permute
	plan, err := ParseFaults("delay:link:0-1:3ms")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	args := [][]*tensor.Tensor{{tensor.Rand(rng, 2, 2), tensor.Rand(rng, 2, 2)}}
	for _, tr := range []TransportKind{TransportChan, TransportProc} {
		res, err := x.Run(context.Background(), args, Options{TimeScale: scale, Trace: true, Faults: plan, Transport: tr})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		var transfers float64
		for _, sp := range res.Trace {
			if sp.Cat == obs.CatTransfer {
				transfers += sp.Dur
			}
		}
		want := transfers + n*collective*scale
		if got := res.Breakdown.CollectiveWire * n; transfers < 7e-3 || math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: CollectiveWire·n = %.9fs, want the transfer spans' %.9fs (two 2 ms wires, one delayed 3 ms) plus the collective's wire, %.9fs in all",
				tr, got, transfers, want)
		}
		res.Release()
	}
}

// TestParcelSize pins a parcel at 32 bytes: the process transport's
// edge queues hold parcels by value and are made for every run, so each
// byte more is paid on every run.
func TestParcelSize(t *testing.T) {
	if n := unsafe.Sizeof(parcel{}); n > 32 {
		t.Fatalf("a parcel is %d bytes, want at most 32", n)
	}
}
