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
//
// due is when the link's last parcel finishes its wire, from the run's
// epoch, and overshoot sums how late the run's deliveries came after
// their dues. Both belong to one run: start zeroes them.
type chanLink struct {
	src, dst  int
	ch        chan parcel
	trace     []obs.Span
	pace      pacer
	due       time.Duration
	overshoot time.Duration
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

// start spins up the link goroutines, each on a link idle since the
// run's epoch.
func (t *chanTransport) start() error {
	for _, l := range t.links {
		l.due, l.overshoot = 0, 0
		t.wg.Add(1)
		go t.serve(l)
	}
	return nil
}

// serve is one link goroutine: drain parcels in order, hold the wire for
// the modeled time, deliver into the destination mailbox. A parcel's
// wire starts when it was posted or when the link's previous wire ends,
// whichever is later, so its due is fixed by the model, not by when
// this goroutine got round to it: a parcel whose due has passed is
// delivered at once, and a queue pays a late wake-up once, not once
// per parcel. Waiting releases the OS thread, so device goroutines
// compute while transfers are in flight — including on a single-core
// host. The wait selects against the engine's abort so a failed run
// never waits out an in-flight transfer, and the injector can drop,
// duplicate, or delay individual deliveries at this choke point.
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
		wire := t.fab.delay(p.key.box)
		drop, dup, extra := e.faultActions(lf, p.key.start.Name)
		if drop {
			continue // lost on the wire: never delivered, never on it
		}
		wire += time.Duration(extra)
		start := max(p.posted, l.due)
		l.due = start + wire
		if !l.pace.until(e.epoch.Add(l.due), e.abort) {
			continue // aborted mid-wire: keep draining without waiting
		}
		delivered := e.sinceDur()
		if wire > 0 {
			l.overshoot += delivered - l.due
		}
		if traced {
			l.trace = append(l.trace, obs.Span{
				Device: l.src, Track: obs.TrackTransfer,
				Cat: obs.CatTransfer, Name: p.key.start.Name,
				Start: start.Seconds(), Dur: (delivered - start).Seconds(),
			})
		}
		t.fab.deliver(l.dst, p.key, p.data, "")
		if dup != nil {
			t.fab.deliver(l.dst, p.key, p.data, dup.String())
		}
	}
}

// overshoot is how late the run's deliveries came after their dues,
// summed over the links. Read after shutdown has joined them.
func (t *chanTransport) overshoot() time.Duration {
	var sum time.Duration
	for _, l := range t.links {
		sum += l.overshoot
	}
	return sum
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
