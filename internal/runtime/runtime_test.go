package runtime_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// siteCase bundles a buildable decomposition site with its per-device
// arguments, mirroring the core equivalence harness (which lives in
// package core and is not importable here).
type siteCase struct {
	name  string
	build func() *hlo.Computation
	args  [][]*tensor.Tensor
	n     int
}

// goldenSites builds the decomposable site shapes of the paper's three
// AllGather cases and the ReduceScatter case (both operand sides where
// they differ) over a ring of n devices.
func goldenSites(n int, rng *rand.Rand) []siteCase {
	groups := topology.NewRing(n).AxisGroups(0)
	const m, k, nn, g = 4, 6, 5, 1
	perDevice := func(shape []int) []*tensor.Tensor {
		out := make([]*tensor.Tensor, n)
		for d := range out {
			out[d] = tensor.Rand(rng, shape...)
		}
		return out
	}
	return []siteCase{
		{
			name: "ag-noncontracting",
			build: func() *hlo.Computation {
				c := hlo.NewComputation("ag1")
				a := c.Parameter(0, "a", []int{m, k})
				b := c.Parameter(1, "b", []int{k, nn})
				full := c.AllGather(a, 0, groups)
				c.Einsum("mk,kn->mn", full, b)
				return c
			},
			args: [][]*tensor.Tensor{perDevice([]int{m, k}), perDevice([]int{k, nn})},
			n:    n,
		},
		{
			name: "ag-noncontracting-rhs",
			build: func() *hlo.Computation {
				c := hlo.NewComputation("ag1r")
				a := c.Parameter(0, "a", []int{m, k})
				b := c.Parameter(1, "b", []int{k, nn})
				full := c.AllGather(b, 1, groups)
				c.Einsum("mk,kn->mn", a, full)
				return c
			},
			args: [][]*tensor.Tensor{perDevice([]int{m, k}), perDevice([]int{k, nn})},
			n:    n,
		},
		{
			name: "ag-contracting",
			build: func() *hlo.Computation {
				c := hlo.NewComputation("ag2")
				a := c.Parameter(0, "a", []int{m, k})
				b := c.Parameter(1, "b", []int{k * n, nn})
				full := c.AllGather(a, 1, groups)
				c.Einsum("mk,kn->mn", full, b)
				return c
			},
			args: [][]*tensor.Tensor{perDevice([]int{m, k}), {tensor.Rand(rng, k*n, nn)}},
			n:    n,
		},
		{
			name: "ag-batch",
			build: func() *hlo.Computation {
				c := hlo.NewComputation("ag3")
				a := c.Parameter(0, "a", []int{g, m, k})
				b := c.Parameter(1, "b", []int{g * n, k, nn})
				full := c.AllGather(a, 0, groups)
				c.Einsum("gmk,gkn->gmn", full, b)
				return c
			},
			args: [][]*tensor.Tensor{perDevice([]int{g, m, k}), {tensor.Rand(rng, g*n, k, nn)}},
			n:    n,
		},
		{
			name: "rs-lhs",
			build: func() *hlo.Computation {
				c := hlo.NewComputation("rs")
				a := c.Parameter(0, "a", []int{m * n, k})
				b := c.Parameter(1, "b", []int{k, nn})
				ein := c.Einsum("mk,kn->mn", a, b)
				c.ReduceScatter(ein, 0, groups)
				return c
			},
			args: [][]*tensor.Tensor{perDevice([]int{m * n, k}), perDevice([]int{k, nn})},
			n:    n,
		},
		{
			name: "rs-rhs",
			build: func() *hlo.Computation {
				c := hlo.NewComputation("rsr")
				a := c.Parameter(0, "a", []int{m, k})
				b := c.Parameter(1, "b", []int{k, nn * n})
				ein := c.Einsum("mk,kn->mn", a, b)
				c.ReduceScatter(ein, 1, groups)
				return c
			},
			args: [][]*tensor.Tensor{perDevice([]int{m, k}), perDevice([]int{k, nn * n})},
			n:    n,
		},
	}
}

// forceOpts returns pipeline options that decompose unconditionally.
func forceOpts(unroll, bidi bool) core.Options {
	return core.Options{
		Spec: machine.TPUv4(),
		Knobs: core.Knobs{
			Unroll:                unroll,
			Bidirectional:         bidi,
			UseCostModel:          false,
			Scheduler:             core.SchedulerBottomUp,
			FuseAddIntoEinsum:     true,
			OverlapFriendlyFusion: true,
		},
	}
}

// variant is one pipeline configuration to cross-validate the runtime
// against the interpreter on.
type variant struct {
	name  string
	apply func(c *hlo.Computation) error
}

func variants() []variant {
	pipeline := func(opts core.Options) func(*hlo.Computation) error {
		return func(c *hlo.Computation) error {
			report, err := core.Apply(c, opts)
			if err != nil {
				return err
			}
			if report.SitesDecomposed == 0 {
				return fmt.Errorf("pipeline decomposed nothing (found %d sites)", report.SitesFound)
			}
			return nil
		}
	}
	rolled := core.Options{Spec: machine.TPUv4(), Knobs: core.Knobs{Rolled: true, UseCostModel: false, Scheduler: core.SchedulerNone}}
	return []variant{
		{"blocking", func(*hlo.Computation) error { return nil }},
		{"rolled", pipeline(rolled)},
		{"decomposed", pipeline(forceOpts(false, false))},
		{"unrolled", pipeline(forceOpts(true, false))},
		{"bidirectional", pipeline(forceOpts(false, true))},
		{"unrolled-bidirectional", pipeline(forceOpts(true, true))},
	}
}

// TestCrossValidateGolden checks, for every golden decomposition case
// and every pipeline variant, that the concurrent runtime's per-device
// outputs are bit-identical to the lockstep interpreter's on the same
// transformed program — and numerically equal to the untransformed
// baseline. This is the runtime's correctness anchor.
func TestCrossValidateGolden(t *testing.T) {
	const n = 4
	for _, v := range variants() {
		rng := rand.New(rand.NewSource(7))
		for _, site := range goldenSites(n, rng) {
			t.Run(site.name+"/"+v.name, func(t *testing.T) {
				base := site.build()
				ref, err := sim.Interpret(base, site.n, site.args)
				if err != nil {
					t.Fatalf("baseline interpret: %v", err)
				}

				transformed := site.build()
				if err := v.apply(transformed); err != nil {
					t.Fatalf("apply: %v", err)
				}
				want, err := sim.Interpret(transformed, site.n, site.args)
				if err != nil {
					t.Fatalf("transformed interpret: %v", err)
				}

				res, err := runtime.Run(transformed, site.n, site.args, runtime.Options{})
				if err != nil {
					t.Fatalf("runtime run: %v", err)
				}
				for d := 0; d < site.n; d++ {
					if !res.Values[d].Equal(want[d]) {
						t.Fatalf("device %d: runtime diverges bitwise from interpreter by %v",
							d, res.Values[d].MaxDifference(want[d]))
					}
					if !res.Values[d].AllClose(ref[d], 1e-9) {
						t.Fatalf("device %d: runtime diverges from baseline by %v",
							d, res.Values[d].MaxDifference(ref[d]))
					}
				}
				if res.Breakdown.StepTime <= 0 {
					t.Fatalf("measured step time %v, want > 0", res.Breakdown.StepTime)
				}
			})
		}
	}
}

// TestInteriorValues checks every top-level instruction of a scheduled
// program against sim.InterpretAll, not just the result. A run hands
// back only what its root names, so the program gets a tuple root over
// all of its instructions — which also makes every one of them a value
// the arena must not recycle.
func TestInteriorValues(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(11))
	site := goldenSites(n, rng)[0]
	c := site.build()
	if _, err := core.Apply(c, forceOpts(true, true)); err != nil {
		t.Fatal(err)
	}
	interior := c.Instructions()
	c.Tuple(interior...)
	want, err := sim.InterpretAll(c, n, site.args)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(c, n, site.args, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range interior {
		for d := 0; d < n; d++ {
			if !res.All[in][d].Equal(want[in][d]) {
				t.Fatalf("%s device %d: runtime value diverges from interpreter", in.Name, d)
			}
		}
	}
}

// TestSingleDevice runs a degenerate one-device ring end to end.
func TestSingleDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	site := goldenSites(1, rng)[0]
	c := site.build()
	want, err := sim.Interpret(c, 1, site.args)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(c, 1, site.args, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Values[0].Equal(want[0]) {
		t.Fatal("single-device runtime diverges from interpreter")
	}
}

// TestBlockingPermute exercises the blocking CollectivePermute path,
// including a device left out of the pairs (which must receive zeros).
func TestBlockingPermute(t *testing.T) {
	const n = 3
	build := func() *hlo.Computation {
		c := hlo.NewComputation("perm")
		a := c.Parameter(0, "a", []int{2, 3})
		c.CollectivePermute(a, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}})
		return c
	}
	rng := rand.New(rand.NewSource(5))
	args := [][]*tensor.Tensor{{tensor.Rand(rng, 2, 3), tensor.Rand(rng, 2, 3), tensor.Rand(rng, 2, 3)}}
	c := build()
	want, err := sim.Interpret(c, n, args)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(build(), n, args, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < n; d++ {
		if !res.Values[d].Equal(want[d]) {
			t.Fatalf("device %d diverges", d)
		}
	}
}

// TestValidation checks that malformed runs fail fast with an error
// instead of deadlocking the device goroutines — the same error whether
// the run is one-shot or split into its halves: a defect of the program
// or the ring size is Compile's to report, a defect of the arguments
// Run's.
func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	site := goldenSites(4, rng)[0]

	// A group collective whose groups miss a device would hang its
	// rendezvous; validation must reject it.
	partial := hlo.NewComputation("partial")
	a := partial.Parameter(0, "a", []int{2, 2})
	partial.AllGather(a, 0, [][]int{{0, 1}})

	for _, tc := range []struct {
		name    string
		c       *hlo.Computation
		n       int
		args    [][]*tensor.Tensor
		want    string
		compile bool // Compile rejects it; otherwise Run does
	}{
		{"zero devices", site.build(), 0, site.args, "hlo: need at least one device", true},
		{"missing argument", site.build(), 4, site.args[:1], "has 2 parameters, got 1 arguments", false},
		{"device outside every collective group", partial, 3, [][]*tensor.Tensor{{tensor.Rand(rng, 2, 2)}},
			"device 2 does not participate in", true},
		{"mis-shaped argument", site.build(), 4, [][]*tensor.Tensor{{tensor.Rand(rng, 3, 3)}, site.args[1]},
			"parameter 0 value shape [3 3], declared", false},
	} {
		_, err := runtime.Run(tc.c, tc.n, tc.args, runtime.Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: one-shot Run: %v, want an error containing %q", tc.name, err, tc.want)
			continue
		}
		x, cerr := runtime.Compile(tc.c, tc.n, machine.Spec{})
		if tc.compile {
			if cerr == nil || cerr.Error() != err.Error() {
				t.Errorf("%s: Compile: %v, want the one-shot error %v", tc.name, cerr, err)
			}
			continue
		}
		if cerr != nil {
			t.Errorf("%s: Compile rejected a sound program: %v", tc.name, cerr)
			continue
		}
		if _, rerr := x.Run(context.Background(), tc.args, runtime.Options{}); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: Executable.Run: %v, want the one-shot error %v", tc.name, rerr, err)
		}
	}
}

// TestExecutorsShareTheRingCheck: a program naming a device its ring
// does not have is the same hlo: error from the simulator (which used
// to index out of range on it), the interpreter and Compile — one
// definition, asked by each before it touches the program.
func TestExecutorsShareTheRingCheck(t *testing.T) {
	c := hlo.NewComputation("out-of-ring")
	a := c.Parameter(0, "a", []int{2, 2})
	c.AllGather(a, 0, [][]int{{0, 99}})
	args := [][]*tensor.Tensor{{tensor.Iota(2, 2)}}
	const want = "hlo: all-gather.1 group device 99 out of range [0,2)"

	_, simErr := sim.Simulate(c, 2, machine.TPUv4())
	_, interpErr := sim.Interpret(c, 2, args)
	_, compileErr := runtime.Compile(c, 2, machine.Spec{})
	for name, err := range map[string]error{"sim.Simulate": simErr, "sim.Interpret": interpErr, "runtime.Compile": compileErr} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", name, err, want)
		}
	}
}

// TestCheckInterpreter: the one cross-check passes on what the runtime
// computed, covers every operand of a tuple root, and names the output
// and device where a result was tampered with.
func TestCheckInterpreter(t *testing.T) {
	const n = 2
	c := hlo.NewComputation("checked")
	a := c.Parameter(0, "a", []int{2, 2})
	sum := c.AllReduce(a, [][]int{{0, 1}})
	twice := c.Add(sum, sum)
	c.Tuple(sum, twice)
	args := [][]*tensor.Tensor{{tensor.Iota(2, 2), tensor.Iota(2, 2)}}
	res, err := runtime.Run(c, n, args, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := runtime.CheckInterpreter(c, n, args, res); err != nil {
		t.Fatalf("an untouched result fails the cross-check: %v", err)
	}
	res.All[twice][1].Data()[3]++
	want := "runtime: " + twice.Name + " on device 1 diverges bitwise from the interpreter"
	if err := runtime.CheckInterpreter(c, n, args, res); err == nil || err.Error() != want {
		t.Fatalf("a tampered second output: %v, want %q", err, want)
	}
}

// TestCheckInterpreterWantsEveryOutput: a check that compares nothing
// is not a pass. A result missing one of the outputs, or holding one
// for fewer devices than the ring has, fails with the output named.
func TestCheckInterpreterWantsEveryOutput(t *testing.T) {
	const n = 2
	c := hlo.NewComputation("checked")
	a := c.Parameter(0, "a", []int{2, 2})
	sum := c.AllReduce(a, [][]int{{0, 1}})
	twice := c.Add(sum, sum)
	c.Tuple(sum, twice)
	args := [][]*tensor.Tensor{{tensor.Iota(2, 2), tensor.Iota(2, 2)}}
	for _, tc := range []struct {
		name   string
		damage func(*runtime.Result)
		want   string
	}{
		{"missing output", func(r *runtime.Result) { delete(r.All, twice) },
			"runtime: " + twice.Name + " is missing from the result checked against the interpreter"},
		{"truncated device list", func(r *runtime.Result) { r.All[sum] = r.All[sum][:1] },
			"runtime: " + sum.Name + " has 1 per-device values for a 2-device ring"},
	} {
		res, err := runtime.Run(c, n, args, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc.damage(res)
		if err := runtime.CheckInterpreter(c, n, args, res); err == nil || err.Error() != tc.want {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestNilArgumentIsAnError feeds both executors an argument list with a
// hole in it — what reading a released Result's All yields — and wants
// the structured parameter error from each, not a nil dereference on
// the caller's goroutine.
func TestNilArgumentIsAnError(t *testing.T) {
	c := hlo.NewComputation("nil-arg")
	a := c.Parameter(0, "a", []int{2, 2})
	c.Add(a, a)
	ok := tensor.Iota(2, 2)
	for _, tc := range []struct {
		name string
		args [][]*tensor.Tensor
	}{
		{"replicated", [][]*tensor.Tensor{{nil}}},
		{"first device", [][]*tensor.Tensor{{nil, ok}}},
		{"last device", [][]*tensor.Tensor{{ok, nil}}},
	} {
		executors := map[string]func() error{
			"runtime":     func() error { _, err := runtime.Run(c, 2, tc.args, runtime.Options{}); return err },
			"interpreter": func() error { _, err := sim.InterpretAll(c, 2, tc.args); return err },
		}
		for name, run := range executors {
			if err := run(); err == nil || !strings.Contains(err.Error(), "parameter 0") {
				t.Errorf("%s, %s: want a parameter-0 error, got %v", tc.name, name, err)
			}
		}
	}
}

// TestTraceRecording runs a decomposed program with tracing on, on a
// ring wider than the simulator's trace window, and checks the recorded
// spans land on the simulator's device tracks: spans on every device
// inside the window (obs.TraceMaxDevices), both compute and transfer
// ones, none beyond it — where a device allocates no span buffer at all
// — and a Chrome rendering through the RunTrace artifact.
func TestTraceRecording(t *testing.T) {
	const n = obs.TraceMaxDevices + 2
	rng := rand.New(rand.NewSource(13))
	site := goldenSites(n, rng)[0]
	c := site.build()
	if _, err := core.Apply(c, forceOpts(false, false)); err != nil {
		t.Fatal(err)
	}
	x, err := runtime.Compile(c, n, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(context.Background(), site.args, runtime.Options{TimeScale: 200, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace events recorded")
	}
	var computes, transfers int
	recorded := map[int]bool{}
	for _, ev := range res.Trace {
		if ev.Device >= obs.TraceMaxDevices {
			t.Fatalf("span %s on device %d, window is %d", ev.Name, ev.Device, obs.TraceMaxDevices)
		}
		recorded[ev.Device] = true
		switch ev.Track {
		case obs.TrackCompute:
			computes++
		case obs.TrackTransfer:
			transfers++
		default:
			t.Fatalf("span %s on unknown track %d", ev.Name, ev.Track)
		}
		if ev.Start < 0 || ev.Dur < 0 {
			t.Fatalf("span %s is not a well-formed interval: %+v", ev.Name, ev)
		}
	}
	if computes == 0 || transfers == 0 {
		t.Fatalf("want both compute and transfer spans, got %d/%d", computes, transfers)
	}
	if len(recorded) != obs.TraceMaxDevices {
		t.Fatalf("spans on %d devices, want every one of the %d inside the window", len(recorded), obs.TraceMaxDevices)
	}
	if cap(res.Trace) != x.TraceLayout() {
		t.Fatalf("%d spans in a slab of %d, the layout says %d", len(res.Trace), cap(res.Trace), x.TraceLayout())
	}
	raw, err := obs.NewRunTrace(res.RunID, "run", res.Trace).ChromeTrace()
	if err != nil {
		t.Fatalf("trace serialization: %v", err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil || len(chrome.TraceEvents) != len(res.Trace) {
		t.Fatalf("chrome trace: %d events for %d spans, err %v", len(chrome.TraceEvents), len(res.Trace), err)
	}
	if res.Breakdown.AsyncTransfers == 0 || res.Breakdown.PeakInFlight == 0 {
		t.Fatalf("breakdown did not observe async transfers: %+v", res.Breakdown)
	}
	if res.Breakdown.CollectiveWire <= 0 {
		t.Fatalf("breakdown recorded no wire time: %+v", res.Breakdown)
	}
}

// TestModeledAndMeasuredTimelinesSameShape builds the RunTrace artifact
// from the simulator's spans and from a real run of the same decomposed
// AllGather-einsum site, and checks the two are comparable span by span:
// per device the same multiset of transfer-track instruction names,
// every one stamped with an attribution verdict. The simulated
// artifact's Chrome encoding is byte-stable.
func TestModeledAndMeasuredTimelinesSameShape(t *testing.T) {
	const n = 4
	site := goldenSites(n, rand.New(rand.NewSource(17)))[0]
	c := site.build()
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	if _, err := core.Apply(c, opts); err != nil {
		t.Fatal(err)
	}

	_, simSpans, err := sim.SimulateTrace(c, n, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.Run(c, n, site.args, runtime.Options{Spec: machine.TPUv4(), TimeScale: 200, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	modeled := obs.NewRunTrace("sim", "run", simSpans)
	measured := obs.NewRunTrace(res.RunID, "run", res.Trace)

	// transfers returns device -> instruction name -> count over the
	// transfer track, failing on any wire span without a verdict.
	transfers := func(label string, tr *obs.RunTrace) map[int]map[string]int {
		out := map[int]map[string]int{}
		for _, s := range tr.Spans {
			if s.Track != obs.TrackTransfer {
				continue
			}
			if s.Verdict == "" {
				t.Errorf("%s: transfer span %s on device %d carries no verdict", label, s.Name, s.Device)
			}
			if out[s.Device] == nil {
				out[s.Device] = map[string]int{}
			}
			out[s.Device][s.Name]++
		}
		return out
	}
	want, got := transfers("modeled", modeled), transfers("measured", measured)
	if len(want) != n {
		t.Fatalf("modeled trace has transfers on %d devices, want %d", len(want), n)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("transfer spans differ:\nmodeled  %v\nmeasured %v", want, got)
	}

	a, err := modeled.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	b, err := modeled.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two ChromeTrace calls on one simulated RunTrace differ")
	}
}
