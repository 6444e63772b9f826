package runtime

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/tensor"
)

// allReduceRun compiles a four-device AllReduce alone and runs it once,
// traced, at the TimeScale that gives the collective the asked wire
// (at least 1 ns), and checks the result bitwise against the
// interpreter. It returns the run's engine, its result and the wire the
// run injected.
func allReduceRun(t *testing.T, ask time.Duration) (*engine, *Result, time.Duration) {
	t.Helper()
	const n = 4
	c := hlo.NewComputation("all-reduce")
	c.AllReduce(c.Parameter(0, "a", []int{8, 4}), [][]int{{0, 1, 2, 3}})
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
	res, err := e.run(context.Background(), args)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInterpreter(c, n, args, res); err != nil {
		t.Fatal(err)
	}
	return e, res, wire
}

// TestBlockingCollectiveWaitsOutItsDue: the member that completes a
// blocking collective's group delivers every member's result due one
// wire after the last arrival, and no member takes its result before
// that due — the completing one included — while the result stays the
// interpreter's bit for bit. A member's collective span starts before
// it arrives and ends after it took its result, so every span must end
// no earlier than the latest span start plus the wire. Only lower
// bounds are asserted: how late a timer fires is the host's.
func TestBlockingCollectiveWaitsOutItsDue(t *testing.T) {
	_, res, wire := allReduceRun(t, 2*time.Millisecond)
	defer res.Release()
	var spans []obs.Span
	for _, sp := range res.Trace {
		if sp.Cat == "collective" {
			spans = append(spans, sp)
		}
	}
	if len(spans) != 4 {
		t.Fatalf("%d collective spans, want one a device", len(spans))
	}
	last := 0.0
	for _, sp := range spans {
		last = max(last, sp.Start)
	}
	due := last + wire.Seconds()
	for _, sp := range spans {
		if end := sp.Start + sp.Dur; end+1e-9 < due {
			t.Errorf("device %d took its result at %.6fs, before the due %.6fs", sp.Device, end, due)
		}
	}
	if res.WireOvershoot < 0 {
		t.Errorf("wire overshoot %v s, want >= 0", res.WireOvershoot)
	}
}

// TestPastDueCollectiveTakesAtOnce: at a 1 ns wire every member comes to
// take its result after the due — the kernel alone outlasts the wire —
// so no device's timer is ever armed and the run reports no overshoot.
// Nothing about elapsed time is asserted.
func TestPastDueCollectiveTakesAtOnce(t *testing.T) {
	e, res, _ := allReduceRun(t, time.Nanosecond)
	defer res.Release()
	for _, d := range e.devices {
		if d.pace.timer != nil {
			t.Errorf("device %d armed its timer for a collective result past its due", d.id)
		}
	}
	if res.WireOvershoot != 0 {
		t.Errorf("wire overshoot %v s for results past their due, want 0", res.WireOvershoot)
	}
}
