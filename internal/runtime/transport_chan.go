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
// The links outlive a run with the run context; their goroutines are
// the run's.
type chanTransport struct {
	eng   *engine
	fab   *fabric
	links []*chanLink // by position in the Executable's edge table
	wg    sync.WaitGroup
}

// newChanTransport lays out one link per directed edge. A link's queue
// holds every parcel a run will post on it, up to linkBuffer.
func newChanTransport(e *engine, f *fabric) *chanTransport {
	t := &chanTransport{eng: e, fab: f, links: make([]*chanLink, len(e.edges))}
	for i, edge := range e.edges {
		t.links[i] = &chanLink{src: edge.src, dst: edge.dst, ch: make(chan parcel, min(linkBuffer, edge.transfers))}
	}
	return t
}

// bind gives each link inside a traced run's window its window of the
// span slab: every transfer the trace layout says it carries.
func (t *chanTransport) bind() {
	e := t.eng
	for i, l := range t.links {
		if l.src < e.window {
			e.spans.declare(l.src, obs.TrackTransfer, e.edges[i].transfers, &l.trace)
		}
	}
}

// reset drops the links' windows of the last run's slab, which the
// run's Result now owns.
func (t *chanTransport) reset() {
	for _, l := range t.links {
		l.trace = nil
	}
}

// start spins up the link goroutines.
func (t *chanTransport) start() error {
	for _, l := range t.links {
		t.wg.Add(1)
		go t.serve(l)
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
	defer t.wg.Done()
	e := t.eng
	lf := e.injLink(l.src, l.dst)
	traced := l.src < e.window
	for {
		p := <-l.ch
		if p.key.start == nil {
			return // shutdown's stop parcel: the queue is empty behind it
		}
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

// shutdown stops every link and joins the link goroutines. The queues
// stay open for the context's next run, so a link stops on a parcel
// that names no start, queued behind everything the devices posted.
func (t *chanTransport) shutdown() {
	for _, l := range t.links {
		l.ch <- parcel{}
	}
	t.wg.Wait()
}
