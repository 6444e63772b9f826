package runtime_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// parseFaultCases are well-formed one-fault specs and what they parse
// to; malformedFaultSpecs must all be rejected. Both seed
// FuzzParseFaults.
var parseFaultCases = []struct {
	spec string
	want runtime.Fault
}{
	{"crash:dev:2", runtime.Fault{Kind: runtime.FaultCrash, Device: 2}},
	{"crash:dev:1:40", runtime.Fault{Kind: runtime.FaultCrash, Device: 1, K: 40}},
	{"drop:link:0-1", runtime.Fault{Kind: runtime.FaultDrop, Src: 0, Dst: 1}},
	{"drop:link:3-0:2", runtime.Fault{Kind: runtime.FaultDrop, Src: 3, Dst: 0, K: 2}},
	{"dup:link:1-2:1", runtime.Fault{Kind: runtime.FaultDuplicate, Src: 1, Dst: 2, K: 1}},
	{"delay:link:0-1:50ms", runtime.Fault{Kind: runtime.FaultDelay, Src: 0, Dst: 1, K: -1, Delay: 50 * time.Millisecond}},
	{"delay:link:0-1:50ms:10ms", runtime.Fault{Kind: runtime.FaultDelay, Src: 0, Dst: 1, K: -1, Delay: 50 * time.Millisecond, Jitter: 10 * time.Millisecond}},
	// A delay aimed at one delivery, as Fault.String prints it.
	{"delay:link:0-1:5ns@3", runtime.Fault{Kind: runtime.FaultDelay, Src: 0, Dst: 1, K: 3, Delay: 5 * time.Nanosecond}},
	{"delay:link:2-1:1ms:2ms@0", runtime.Fault{Kind: runtime.FaultDelay, Src: 2, Dst: 1, K: 0, Delay: time.Millisecond, Jitter: 2 * time.Millisecond}},
}

var malformedFaultSpecs = []string{
	"crash:dev", "crash:link:0-1", "crash:dev:x", "crash:dev:1:2:3",
	"drop:dev:1", "drop:link:01", "drop:link:a-b", "drop:link:0-1:x",
	"delay:link:0-1", "delay:link:0-1:nope", "delay:link:0-1:1ms:nope:extra",
	"delay:link:0-1:1ms@x", "delay:link:0-1:1ms@-2", "delay:link:0-1:1ms@1:2ms", "delay:link:0-1:1ms:-1ms",
	"explode:dev:1", "nonsense",
}

// TestParseFaults checks the CLI fault grammar round-trips through
// Fault.String and rejects malformed specs.
func TestParseFaults(t *testing.T) {
	for _, c := range parseFaultCases {
		plan, err := runtime.ParseFaults(c.spec)
		if err != nil {
			t.Fatalf("ParseFaults(%q): %v", c.spec, err)
		}
		if len(plan.Faults) != 1 || plan.Faults[0] != c.want {
			t.Fatalf("ParseFaults(%q) = %+v, want %+v", c.spec, plan.Faults, c.want)
		}
		// Round-trip: the rendered fault must parse back to itself.
		again, err := runtime.ParseFaults(plan.Faults[0].String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", plan.Faults[0], err)
		}
		if again.Faults[0] != c.want {
			t.Fatalf("round trip %q = %+v, want %+v", c.spec, again.Faults[0], c.want)
		}
	}

	multi, err := runtime.ParseFaults("crash:dev:0, drop:link:0-1:3")
	if err != nil || len(multi.Faults) != 2 {
		t.Fatalf("comma list parse: %v, %+v", err, multi)
	}
	if plan, err := runtime.ParseFaults(""); err != nil || plan != nil {
		t.Fatalf("empty spec: %v, %+v", err, plan)
	}

	for _, bad := range malformedFaultSpecs {
		if _, err := runtime.ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted a malformed spec", bad)
		}
	}
}

// FuzzParseFaults: a fault spec is outside input (overlap run -fault, a
// /v1/run body's fault). Whatever its bytes, ParseFaults returns a plan
// or an error and never panics, and every plan it accepts prints, by
// FaultPlan.String, a spec that parses back to an equal plan — the
// syntax a RunError's Fault field promises.
func FuzzParseFaults(f *testing.F) {
	for _, c := range parseFaultCases {
		f.Add(c.spec)
	}
	for _, bad := range malformedFaultSpecs {
		f.Add(bad)
	}
	f.Add("crash:dev:0, drop:link:0-1:3")
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := runtime.ParseFaults(spec)
		if err != nil || plan == nil {
			return
		}
		again, err := runtime.ParseFaults(plan.String())
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", spec, plan, err)
		}
		if !slices.Equal(again.Faults, plan.Faults) {
			t.Fatalf("%q prints as %q, which parses to %+v, not %+v", spec, plan, again.Faults, plan.Faults)
		}
	})
}

// stallProgram builds a two-device program whose structure guarantees a
// parcel is on the wire before the interesting instruction runs: device
// 0 posts 0->1, both devices then synchronize on an AllGather barrier
// (so the post has happened), an Add marks the crash point, and the
// done completes the transfer.
//
// Per-device instruction indices: 0 param, 1 start, 2 all-gather,
// 3 add, 4 done, 5 add (root).
func stallProgram() (*hlo.Computation, [][]*tensor.Tensor) {
	c := hlo.NewComputation("stall")
	a := c.Parameter(0, "a", []int{8, 8})
	start := c.CollectivePermuteStart(a, []hlo.SourceTargetPair{{Source: 0, Target: 1}})
	ag := c.AllGather(a, 0, [][]int{{0, 1}})
	c.Add(ag, ag)
	done := c.CollectivePermuteDone(start)
	c.Add(done, done)

	rng := rand.New(rand.NewSource(21))
	args := [][]*tensor.Tensor{{tensor.Rand(rng, 8, 8), tensor.Rand(rng, 8, 8)}}
	return c, args
}

// TestAbortReturnsBeforeWireDelay pins that a failing run waits for no
// wire. A delay fault lengthens its parcel's wire on the devices'
// clocks only, so even with a 10s delay on the parcel in flight when a
// device crashes, Run must return the crash error in a small fraction
// of that. (Before the clocks, a wait for an in-flight wire ran it out
// in wall time after the run had failed.)
func TestAbortReturnsBeforeWireDelay(t *testing.T) {
	c, args := stallProgram()
	opts := runtime.Options{Faults: &runtime.FaultPlan{Faults: []runtime.Fault{
		// The parcel posted by device 0 occupies the 0->1 wire for 10s.
		{Kind: runtime.FaultDelay, Src: 0, Dst: 1, K: -1, Delay: 10 * time.Second},
		// Device 1 crashes at the Add after the barrier, which the
		// barrier guarantees is after device 0's post.
		{Kind: runtime.FaultCrash, Device: 1, K: 3},
	}}}

	t0 := time.Now()
	_, err := runtime.Run(c, 2, args, opts)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("Run succeeded, want injected crash")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("failing run took %s, should return well before the 10s wire delay", elapsed)
	}
	var re *runtime.RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RunError", err)
	}
	if !errors.Is(err, runtime.ErrInjectedCrash) || re.Device != 1 {
		t.Fatalf("error %v does not attribute the crash to device 1", re)
	}
}

// TestDeadlineDropAttribution pins RunContext's deadline path: a
// dropped delivery stalls the receiver forever, the context deadline
// fires, and the error is a *RunError attributing the stall to the
// receiving device in phase receive, naming the injected fault, and
// unwrapping to context.DeadlineExceeded.
func TestDeadlineDropAttribution(t *testing.T) {
	c, args := stallProgram()
	drop := runtime.Fault{Kind: runtime.FaultDrop, Src: 0, Dst: 1, K: 0}
	opts := runtime.Options{Faults: &runtime.FaultPlan{Faults: []runtime.Fault{drop}}}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := runtime.RunContext(ctx, c, 2, args, opts)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("RunContext succeeded, want deadline abort")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %s to unwind", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
	var re *runtime.RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RunError", err)
	}
	if re.Device != 1 || re.Phase != runtime.PhaseReceive {
		t.Fatalf("error %v, want device 1 phase receive", re)
	}
	if re.Fault != drop.String() {
		t.Fatalf("error fault %q, want %q", re.Fault, drop)
	}
	if re.Elapsed < 300*time.Millisecond {
		t.Fatalf("error elapsed %s is before the deadline", re.Elapsed)
	}
}

// TestDuplicateDeliveryDetected pins the fabric's at-most-once
// enforcement: an injected duplicate delivery is detected at the
// mailbox and fails the run with a structured error at the receiving
// device, rather than handing the same buffer over twice.
func TestDuplicateDeliveryDetected(t *testing.T) {
	c, args := stallProgram()
	dup := runtime.Fault{Kind: runtime.FaultDuplicate, Src: 0, Dst: 1, K: 0}
	opts := runtime.Options{Faults: &runtime.FaultPlan{Faults: []runtime.Fault{dup}}}

	_, err := runtime.Run(c, 2, args, opts)
	if err == nil {
		t.Fatal("Run succeeded, want duplicate-delivery error")
	}
	if !errors.Is(err, runtime.ErrDuplicateDelivery) {
		t.Fatalf("error %v does not unwrap to ErrDuplicateDelivery", err)
	}
	var re *runtime.RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RunError", err)
	}
	if re.Device != 1 || re.Phase != runtime.PhaseReceive || re.Fault != dup.String() {
		t.Fatalf("error %v, want device 1 phase receive fault %q", re, dup)
	}
}

// TestFaultPlanValidation checks that plans addressing devices or edges
// outside the run are rejected before any goroutine starts.
func TestFaultPlanValidation(t *testing.T) {
	c, args := stallProgram()
	bad := []runtime.FaultPlan{
		{Faults: []runtime.Fault{{Kind: runtime.FaultCrash, Device: 5}}},
		{Faults: []runtime.Fault{{Kind: runtime.FaultCrash, Device: 0, K: -1}}},
		{Faults: []runtime.Fault{{Kind: runtime.FaultDrop, Src: 0, Dst: 9}}},
		{Faults: []runtime.Fault{{Kind: runtime.FaultDrop, Src: -1, Dst: 1}}},
		{Faults: []runtime.Fault{{Kind: runtime.FaultDelay, Src: 0, Dst: 1, K: -1}}}, // no duration
		{Faults: []runtime.Fault{{Kind: "explode", Device: 0}}},
	}
	for _, plan := range bad {
		plan := plan
		if _, err := runtime.Run(c, 2, args, runtime.Options{Faults: &plan}); err == nil {
			t.Errorf("plan %s accepted, want validation error", &plan)
		}
	}
}

// TestDelayFaultPreservesResults checks that a small injected delay
// (with jitter) only moves the replayed times: the outputs stay
// bit-identical to an undelayed execution.
func TestDelayFaultPreservesResults(t *testing.T) {
	c, args := stallProgram()
	clean, err := runtime.Run(c, 2, args, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := runtime.Options{Faults: &runtime.FaultPlan{Seed: 3, Faults: []runtime.Fault{
		{Kind: runtime.FaultDelay, Src: 0, Dst: 1, K: -1, Delay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond},
	}}}
	delayed, err := runtime.Run(c, 2, args, opts)
	if err != nil {
		t.Fatal(err)
	}
	for d := range clean.Values {
		if !delayed.Values[d].Equal(clean.Values[d]) {
			t.Fatalf("device %d: delay fault changed the answer", d)
		}
	}
}

// TestRunErrorMarshalJSON pins the machine-readable failure shape the
// serving daemon returns on a 5xx: device, instruction, phase, and the
// injected fault must each be individually addressable fields.
func TestRunErrorMarshalJSON(t *testing.T) {
	re := &runtime.RunError{
		Device:  2,
		Instr:   "%collective-permute-start.7",
		Phase:   runtime.PhaseReceive,
		Elapsed: 1500 * time.Microsecond,
		Fault:   "drop:link:0-1:0",
		Err:     context.DeadlineExceeded,
	}
	data, err := json.Marshal(re)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("RunError JSON does not parse: %v\n%s", err, data)
	}
	if got["device"] != float64(2) || got["phase"] != "receive" ||
		got["fault"] != "drop:link:0-1:0" || got["instruction"] != "%collective-permute-start.7" {
		t.Fatalf("RunError JSON lost attribution fields: %s", data)
	}
	if got["elapsed_ms"] != 1.5 {
		t.Fatalf("elapsed_ms = %v, want 1.5", got["elapsed_ms"])
	}
	if got["cause"] != context.DeadlineExceeded.Error() {
		t.Fatalf("cause = %v", got["cause"])
	}
}

// faultPointsProgram posts on a 4-device ring: a loop whose body sends
// each device's value to its right neighbour three times, one transfer
// back to the left, and then two more transfers on the edge 0→1, so
// that link 0→1 carries five deliveries, of three starts. It returns
// the program, its arguments and the two starts after the loop.
func faultPointsProgram() (*hlo.Computation, [][]*tensor.Tensor, [2]*hlo.Instruction) {
	body := hlo.NewComputation("body")
	q := body.Parameter(0, "q", []int{2, 2})
	body.Tuple(body.Add(body.CollectivePermuteDone(body.CollectivePermuteStart(q, ringPairs(4))), q))
	c := hlo.NewComputation("fault-points")
	p := c.Parameter(0, "p", []int{2, 2})
	l := c.Loop(body, 3, 0, p)
	left := []hlo.SourceTargetPair{{Source: 1, Target: 0}, {Source: 2, Target: 1}, {Source: 3, Target: 2}, {Source: 0, Target: 3}}
	back := c.CollectivePermuteDone(c.CollectivePermuteStart(l, left))
	one := []hlo.SourceTargetPair{{Source: 0, Target: 1}}
	s1 := c.CollectivePermuteStart(back, one)
	d1 := c.CollectivePermuteDone(s1)
	s2 := c.CollectivePermuteStart(d1, one)
	c.Tuple(c.CollectivePermuteDone(s2), back)
	rng := rand.New(rand.NewSource(61))
	args := [][]*tensor.Tensor{make([]*tensor.Tensor, 4)}
	for d := range args[0] {
		args[0][d] = tensor.Rand(rng, 2, 2)
	}
	return c, args, [2]*hlo.Instruction{s1, s2}
}

// TestFaultPlanFiresAtTheSameDeliveries pins where a seeded fault plan
// fires, on both transports: which deliveries each delay lengthens and
// by how much — its length plus the jitter drawn from its link's
// stream, seeded per (source, target) — and which delivery a drop and a
// duplicate hit. The run has no modeled wire, so each transfer span is
// exactly its delay. The nanoseconds are pinned: how the injector
// keeps its state must not move them.
func TestFaultPlanFiresAtTheSameDeliveries(t *testing.T) {
	c, args, after := faultPointsProgram()
	x, err := runtime.Compile(c, 4, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	delays := &runtime.FaultPlan{Seed: 5, Faults: []runtime.Fault{
		{Kind: runtime.FaultDelay, Src: 0, Dst: 1, K: -1, Delay: time.Millisecond, Jitter: 2 * time.Millisecond},
		{Kind: runtime.FaultDelay, Src: 1, Dst: 2, K: 1, Delay: 2 * time.Millisecond},
		{Kind: runtime.FaultDelay, Src: 2, Dst: 3, K: 2, Delay: time.Millisecond, Jitter: time.Millisecond},
		{Kind: runtime.FaultDelay, Src: 1, Dst: 0, K: -1, Delay: time.Millisecond, Jitter: 3 * time.Millisecond},
		{Kind: runtime.FaultDelay, Src: 0, Dst: 1, K: 3, Delay: 4 * time.Millisecond, Jitter: time.Millisecond},
	}}
	// Each device's transfer spans, in the order it posted them, in
	// nanoseconds of delay.
	want := [][]time.Duration{
		0: {1486743, 1204223, 1689403, 7228644, 1934145},
		1: {2000000, 3756676},
		2: {1566092},
	}
	for _, tr := range transports {
		res, err := x.Run(context.Background(), args, runtime.Options{Trace: true, Faults: delays, Transport: tr})
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		got := make([][]time.Duration, len(want))
		for _, sp := range res.Trace {
			if sp.Cat == obs.CatTransfer {
				got[sp.Device] = append(got[sp.Device], time.Duration(math.Round(sp.Dur*1e9)))
			}
		}
		res.Release()
		for d := range want {
			if !slices.Equal(got[d], want[d]) {
				t.Errorf("%s: device %d's delayed transfers %v, want %v", tr, d, got[d], want[d])
			}
		}
	}

	for _, tc := range []struct {
		fault runtime.Fault
		instr string
		cause error
	}{
		{runtime.Fault{Kind: runtime.FaultDrop, Src: 0, Dst: 1, K: 3}, after[0].Name, context.DeadlineExceeded},
		{runtime.Fault{Kind: runtime.FaultDuplicate, Src: 0, Dst: 1, K: 4}, after[1].Name, runtime.ErrDuplicateDelivery},
	} {
		for _, tr := range transports {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			_, err := x.Run(ctx, args, runtime.Options{Faults: &runtime.FaultPlan{Faults: []runtime.Fault{tc.fault}}, Transport: tr})
			cancel()
			var re *runtime.RunError
			if !errors.As(err, &re) || !errors.Is(err, tc.cause) {
				t.Fatalf("%s %s: error %v, want a *RunError from %v", tr, tc.fault, err, tc.cause)
			}
			if re.Device != 1 || re.Instr != tc.instr || re.Phase != runtime.PhaseReceive || re.Fault != tc.fault.String() {
				t.Errorf("%s %s: error %v, want device 1 at %s, phase receive, fault %s", tr, tc.fault, re, tc.instr, tc.fault)
			}
		}
	}
}

// TestAbortedProcRunWorkersExitClean: a drop fault aborts a proc run at
// its deadline and a duplicate aborts one at once, and the parent tears
// the fabric down with frames still in flight, so a worker's control
// read may end in a reset, a broken pipe or a frame cut short rather
// than EOF. The abort is the parent's own and already reported as a
// RunError: every worker must take the close as orderly and exit 0.
// Where the close catches a worker is timing, so the test aborts forty
// runs, mostly by the duplicate, which costs no deadline.
func TestAbortedProcRunWorkersExitClean(t *testing.T) {
	c, args, _ := faultPointsProgram()
	x, err := runtime.Compile(c, 4, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	exits := map[int]error{}
	defer runtime.WatchWorkerExits(func(dev int, err error) {
		mu.Lock()
		exits[dev] = err
		mu.Unlock()
	})()
	drop := runtime.Fault{Kind: runtime.FaultDrop, Src: 0, Dst: 1, K: 3}
	dup := runtime.Fault{Kind: runtime.FaultDuplicate, Src: 0, Dst: 1, K: 4}
	for round := range 40 {
		fault := dup
		if round%8 == 0 {
			fault = drop
		}
		clear(exits)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		_, err := x.Run(ctx, args, runtime.Options{Faults: &runtime.FaultPlan{Faults: []runtime.Fault{fault}}, Transport: runtime.TransportProc})
		cancel()
		var re *runtime.RunError
		if !errors.As(err, &re) {
			t.Fatalf("round %d, %s: error %v, want a *RunError", round, fault, err)
		}
		mu.Lock()
		for dev := range 4 {
			if err, ok := exits[dev]; !ok || err != nil {
				t.Errorf("round %d, %s: worker %d reaped %v, exit %v; want exit 0", round, fault, dev, ok, err)
			}
		}
		mu.Unlock()
	}
}

// TestUnusedEdgeFaultFiresNothing: a fault on an edge no transfer of the
// program takes fires nothing, on either transport. The run succeeds
// with the interpreter's values and no wire: the delay lengthens
// nothing, the drop loses nothing and the duplicate repeats nothing.
func TestUnusedEdgeFaultFiresNothing(t *testing.T) {
	c, args, _ := faultPointsProgram()
	x, err := runtime.Compile(c, 4, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	plan := &runtime.FaultPlan{Seed: 3, Faults: []runtime.Fault{
		{Kind: runtime.FaultDelay, Src: 0, Dst: 2, K: -1, Delay: 5 * time.Millisecond, Jitter: time.Millisecond},
		{Kind: runtime.FaultDrop, Src: 2, Dst: 0, K: 0},
		{Kind: runtime.FaultDuplicate, Src: 3, Dst: 1, K: 0},
	}}
	for _, tr := range transports {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := x.Run(ctx, args, runtime.Options{Trace: true, Faults: plan, Transport: tr})
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if err := runtime.CheckInterpreter(c, 4, args, res); err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		transfers := 0
		for _, sp := range res.Trace {
			if sp.Cat == obs.CatTransfer {
				transfers++
			}
		}
		if res.Breakdown.CollectiveWire != 0 || transfers != 0 {
			t.Errorf("%s: %g s of wire and %d transfer spans, want none", tr, res.Breakdown.CollectiveWire, transfers)
		}
		res.Release()
	}
}
