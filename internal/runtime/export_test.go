package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"overlap/internal/obs"
	"overlap/internal/tensor"
)

// PoisonReleased turns the use-after-release canary on for the calling
// test and returns the function that turns it off again: while on,
// every buffer going back to a free list is overwritten with NaN.
func PoisonReleased() (restore func()) {
	poisonReleased = true
	return func() { poisonReleased = false }
}

// HoldBack makes device dev wait for hold of wall time at each done
// before it takes its parcel, so that the other devices run ahead of
// it — through a generation of a blocking collective and into the
// next — and returns the function that turns the hold off again. A
// delay fault cannot do this: it lengthens a wire on the devices'
// clocks, and no device waits for it.
func HoldBack(dev int, hold time.Duration) (restore func()) {
	holdAtDone = func(id int) {
		if id == dev {
			time.Sleep(hold)
		}
	}
	return func() { holdAtDone = nil }
}

// TraceBuffer describes one recorder's span buffer after a run: how
// many spans it holds, its capacity, and the size the Executable's
// trace layout gives it — zero outside the trace window and for an
// untraced run, where no buffer may exist at all.
type TraceBuffer struct {
	Owner    string
	Len, Cap int
	Layout   int
}

// RunTraceBuffers runs the Executable once, the way Run does, and
// reports every span buffer the run's devices and transport recorded
// into: each device's, then the span slab's windows in slab order. The
// layout sizes are derived here, from the edge table, not read back
// from the slab; a slab whose windows are not exactly the ones the
// layout names is an error.
func (x *Executable) RunTraceBuffers(ctx context.Context, args [][]*tensor.Tensor, opts Options) ([]TraceBuffer, error) {
	if err := x.validateRun(args, opts); err != nil {
		return nil, err
	}
	eng, err := newEngine(x, opts)
	if err != nil {
		return nil, err
	}
	res, err := eng.run(ctx, args, time.Now())
	if err != nil {
		return nil, err
	}
	res.Release()

	var out []TraceBuffer
	for _, d := range eng.devices {
		layout := 0
		if d.id < eng.window {
			layout = x.computeSpans
		}
		out = append(out, TraceBuffer{fmt.Sprintf("device %d", d.id), len(d.trace), cap(d.trace), layout})
	}
	if eng.spans == nil {
		if res.Trace != nil {
			return nil, fmt.Errorf("an untraced run returned %d spans", len(res.Trace))
		}
		return out, nil
	}
	// Per device inside the window: its compute track, then its transfer
	// track — one window per outgoing edge, on either transport.
	var want []int
	for dev := 0; dev < eng.window; dev++ {
		want = append(want, x.computeSpans)
		for _, e := range x.edges {
			if e.src == dev {
				want = append(want, e.transfers)
			}
		}
	}
	if len(eng.spans.wins) != len(want) {
		return nil, fmt.Errorf("transport %q: the span slab has %d windows, the layout names %d", opts.Transport, len(eng.spans.wins), len(want))
	}
	total, recorded := 0, 0
	for i, w := range eng.spans.wins {
		total += want[i]
		recorded += len(*w.rec)
		if w.track != 0 { // a device's own buffer is listed above
			out = append(out, TraceBuffer{fmt.Sprintf("device %d transfer window %d", w.device, i), len(*w.rec), cap(*w.rec), want[i]})
		}
	}
	if len(eng.spans.buf) != total || len(res.Trace) != recorded {
		return nil, fmt.Errorf("transport %q: slab of %d spans for a layout of %d, %d spans returned of %d recorded",
			opts.Transport, len(eng.spans.buf), total, len(res.Trace), recorded)
	}
	for i, sp := range res.Trace {
		if sp.Name == "" || sp.Dur <= 0 {
			return nil, fmt.Errorf("transport %q: span %d of the stream is a gap: %+v", opts.Transport, i, sp)
		}
		if i > 0 && obs.SpanLess(sp, res.Trace[i-1]) {
			return nil, fmt.Errorf("transport %q: spans %d and %d of the stream are out of SpanLess order", opts.Transport, i-1, i)
		}
	}
	return out, nil
}

// IdleRunContexts reports how many run contexts the Executable holds
// for later runs.
func (x *Executable) IdleRunContexts() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.idle)
}

// OnTapeCollected sets collected once the Executable's tape is garbage.
// The finalizer sits on the tape because the Executable itself is on a
// reference cycle with its run contexts, and the collector runs no
// finalizer on a cycle; nothing but the Executable and its contexts
// reaches the tape.
func (x *Executable) OnTapeCollected(collected *atomic.Bool) {
	goruntime.SetFinalizer(x.tape, func(*tape) { collected.Store(true) })
}
