package runtime

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/tensor"
)

// collectiveRun compiles a four-device program in which every device
// evaluates an Add and then meets the others at the blocking collective
// join builds on its result, runs it once, traced, at the TimeScale
// that gives the collective the asked wire (at least 1 ns), and checks
// the result bitwise against the interpreter. It returns the run's
// engine, its result, the wire the run injected, and each device's
// clock when it arrived at the collective: the end of its Add.
func collectiveRun(t *testing.T, ask time.Duration, join func(c *hlo.Computation, x *hlo.Instruction)) (*engine, *Result, time.Duration, []time.Duration) {
	t.Helper()
	const n = 4
	c := hlo.NewComputation("collective")
	a := c.Parameter(0, "a", []int{8, 4})
	join(c, c.Add(a, a))
	x, err := Compile(c, n, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	op := &x.tape.ops[x.tape.boxes[0]]
	// Half a nanosecond over the ask, so the scaled wire does not round
	// down below it.
	scale := (ask.Seconds() + 0.5e-9) / op.modeled
	e, err := newEngine(x, Options{TimeScale: scale, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	wire := e.delay(op.modeled)
	if wire != ask {
		t.Fatalf("the collective injects %v, want %v", wire, ask)
	}
	rng := rand.New(rand.NewSource(11))
	args := [][]*tensor.Tensor{make([]*tensor.Tensor, n)}
	for d := range args[0] {
		args[0][d] = tensor.Rand(rng, 8, 4)
	}
	res, err := e.run(context.Background(), args, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInterpreter(c, n, args, res); err != nil {
		t.Fatal(err)
	}
	arrived := make([]time.Duration, n)
	for _, sp := range res.Trace {
		if sp.Cat == obs.CatCompute {
			arrived[sp.Device] = time.Duration(math.Round((sp.Start + sp.Dur) * 1e9))
		}
	}
	return e, res, wire, arrived
}

// TestBlockingCollectiveWaitsOutItsDue: the member that completes a
// blocking collective's group delivers every member's result due one
// wire after the last arrival on the clocks, and every member's clock —
// the completing one's included — lands exactly on that due, while the
// result stays the interpreter's bit for bit. Each member's collective
// span runs from its arrival to the due, and the step is the due.
func TestBlockingCollectiveWaitsOutItsDue(t *testing.T) {
	e, res, wire, arrived := collectiveRun(t, 2*time.Millisecond, func(c *hlo.Computation, x *hlo.Instruction) {
		c.AllReduce(x, [][]int{{0, 1, 2, 3}})
	})
	defer res.Release()
	due := wire
	for _, at := range arrived {
		due = max(due, at+wire)
	}
	for _, d := range e.devices {
		if d.vt != due {
			t.Errorf("device %d's clock ends at %v, want the due %v", d.id, d.vt, due)
		}
	}
	spans := 0
	for _, sp := range res.Trace {
		if sp.Cat != obs.CatCollective {
			continue
		}
		spans++
		from := arrived[sp.Device]
		if sp.Start != from.Seconds() || sp.Dur != (due-from).Seconds() {
			t.Errorf("device %d's collective span is [%.9fs, +%.9fs], want [%.9fs, +%.9fs]",
				sp.Device, sp.Start, sp.Dur, from.Seconds(), (due - from).Seconds())
		}
	}
	if spans != 4 {
		t.Fatalf("%d collective spans, want one a device", spans)
	}
	if res.Breakdown.StepTime != due.Seconds() {
		t.Errorf("step %vs, want the due %vs", res.Breakdown.StepTime, due.Seconds())
	}
}

// TestPastDueCollectiveTakesAtOnce: a blocking CollectivePermute's due
// is per pair, as the simulator prices it. Each target's clock moves to
// its own source's arrival plus the wire, or stays where it was when it
// is already past that; a device with no source takes its zero result
// at its own clock. Here 0 sends to 1 and 1 to 2; devices 0 and 3 have
// no source.
func TestPastDueCollectiveTakesAtOnce(t *testing.T) {
	e, res, wire, arrived := collectiveRun(t, time.Microsecond, func(c *hlo.Computation, x *hlo.Instruction) {
		c.CollectivePermute(x, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 2}})
	})
	defer res.Release()
	want := []time.Duration{
		arrived[0],
		max(arrived[1], arrived[0]+wire),
		max(arrived[2], arrived[1]+wire),
		arrived[3],
	}
	for _, d := range e.devices {
		if d.vt != want[d.id] {
			t.Errorf("device %d's clock ends at %v, want %v (arrivals %v, wire %v)", d.id, d.vt, want[d.id], arrived, wire)
		}
	}
}
