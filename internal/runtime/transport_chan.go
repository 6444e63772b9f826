package runtime

import (
	"sync"
	"time"

	"overlap/internal/obs"
)

// chanLink is one directed (src,dst) connection of the in-process
// transport: a buffered channel plus a goroutine that imposes the
// modeled wire time. Because every parcel for the edge passes through
// one goroutine, transfers on the same link serialize — the property
// that makes the injected delays compose like real link occupancy.
type chanLink struct {
	src, dst int
	ch       chan parcel
	trace    []obs.Span
	pace     pacer
}

// chanTransport is the original fabric data plane: per-edge buffered Go
// channels serviced by link goroutines, all inside the parent process.
type chanTransport struct {
	eng   *engine
	fab   *fabric
	links []*chanLink // by position in the Executable's edge table
	wg    sync.WaitGroup
}

// newChanTransport lays out one link per directed edge. A link's queue
// holds every parcel the run will post on it, up to linkBuffer, and its
// window of the span slab every transfer the trace layout says it
// carries.
func newChanTransport(e *engine, f *fabric) *chanTransport {
	t := &chanTransport{eng: e, fab: f, links: make([]*chanLink, len(e.edges))}
	for i, edge := range e.edges {
		l := &chanLink{src: edge.src, dst: edge.dst, ch: make(chan parcel, min(linkBuffer, edge.transfers))}
		if l.src < e.window {
			e.spans.declare(l.src, obs.TrackTransfer, edge.transfers, &l.trace)
		}
		t.links[i] = l
	}
	return t
}

// start spins up the link goroutines.
func (t *chanTransport) start() error {
	for _, l := range t.links {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serve(l)
		}()
	}
	return nil
}

// serve is one link goroutine: drain parcels in order, hold the wire for
// the modeled time, deliver into the destination mailbox. Sleeping here
// releases the OS thread, so device goroutines compute while transfers
// are in flight — including on a single-core host. The sleep selects
// against the engine's abort so a failed run never waits out an
// in-flight transfer, and the injector can drop, duplicate, or delay
// individual deliveries at this choke point.
func (t *chanTransport) serve(l *chanLink) {
	e := t.eng
	lf := e.injLink(l.src, l.dst)
	traced := l.src < e.window
	for p := range l.ch {
		start := e.since()
		wire := t.fab.delay(p.key.box)
		drop, dup, extra := e.faultActions(lf, p.key.start.Name)
		if drop {
			continue // lost on the wire: never delivered
		}
		wire += time.Duration(extra)
		if !l.pace.sleep(wire, e.abort) {
			continue // aborted mid-wire: keep draining without sleeping
		}
		if traced {
			l.trace = append(l.trace, obs.Span{
				Device: l.src, Track: obs.TrackTransfer,
				Cat: obs.CatTransfer, Name: p.key.start.Name,
				Start: start, Dur: e.since() - start,
			})
		}
		t.fab.deliver(l.dst, p.key, p.data, "")
		if dup != nil {
			t.fab.deliver(l.dst, p.key, p.data, dup.String())
		}
	}
}

// post enqueues a transfer on its link channel without waiting for the
// wire.
func (t *chanTransport) post(link int, p parcel) bool {
	select {
	case t.links[link].ch <- p:
		return true
	case <-t.eng.abort:
		return false
	}
}

// shutdown closes every link and joins the link goroutines.
func (t *chanTransport) shutdown() {
	for _, l := range t.links {
		close(l.ch)
	}
	t.wg.Wait()
}
