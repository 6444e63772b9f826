package runtime

import (
	"context"
	"fmt"

	"overlap/internal/tensor"
)

// PoisonReleased turns the use-after-release canary on for the calling
// test and returns the function that turns it off again: while on,
// every buffer going back to a free list is overwritten with NaN.
func PoisonReleased() (restore func()) {
	poisonReleased = true
	return func() { poisonReleased = false }
}

// TraceBuffer describes one span buffer a run recorded into: how many
// spans it holds, its capacity after the run, and the size the
// Executable's trace layout gives it — zero outside the trace window
// and for an untraced run, where no buffer may exist at all.
type TraceBuffer struct {
	Owner    string
	Len, Cap int
	Layout   int
}

// RunTraceBuffers runs the Executable once, the way Run does, and
// reports every span buffer the run's devices and transport held when
// it was over.
func (x *Executable) RunTraceBuffers(ctx context.Context, args [][]*tensor.Tensor, opts Options) ([]TraceBuffer, error) {
	if err := x.validateRun(args, opts); err != nil {
		return nil, err
	}
	eng, err := newEngine(x, opts)
	if err != nil {
		return nil, err
	}
	res, err := eng.run(ctx, args)
	if err != nil {
		return nil, err
	}
	res.Release()

	in := func(dev, n int) int { // n inside the trace window, else 0
		if dev < eng.window {
			return n
		}
		return 0
	}
	var out []TraceBuffer
	for _, d := range eng.devices {
		out = append(out, TraceBuffer{fmt.Sprintf("device %d", d.id), len(d.trace), cap(d.trace), in(d.id, x.computeSpans)})
	}
	// The transports' traces() order: one buffer per edge in edge order;
	// the process transport adds one per worker by ascending device, for
	// the two spans of every frame addressed to it.
	var layout []TraceBuffer
	for _, e := range x.edges {
		layout = append(layout, TraceBuffer{Owner: fmt.Sprintf("link %d->%d", e.src, e.dst), Layout: in(e.src, e.transfers)})
	}
	if opts.Transport == TransportProc {
		inbound, touches := make([]int, x.n), make([]bool, x.n)
		for _, e := range x.edges {
			inbound[e.dst] += e.transfers
			touches[e.src], touches[e.dst] = true, true
		}
		for dev := range inbound {
			if touches[dev] {
				layout = append(layout, TraceBuffer{Owner: fmt.Sprintf("worker %d", dev), Layout: in(dev, 2*inbound[dev])})
			}
		}
	}
	bufs := eng.fabric.traces()
	if len(bufs) != len(layout) {
		return nil, fmt.Errorf("transport %q holds %d span buffers, the layout names %d", opts.Transport, len(bufs), len(layout))
	}
	for i, b := range bufs {
		layout[i].Len, layout[i].Cap = len(b), cap(b)
	}
	return append(out, layout...), nil
}
