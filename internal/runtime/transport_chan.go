package runtime

import "overlap/internal/obs"

// chanTransport is the in-process data plane: the device that posts a
// parcel puts it straight into the destination mailbox, stamped with
// the due its link's wire gives it, and the done that takes it waits
// out whatever is left of that wire on the receiving device's own
// timer. No goroutine stands between the two, so a done that comes
// after the due takes its buffer at once. It outlives a run with the
// run context.
type chanTransport struct {
	eng *engine
	fab *fabric
	// trace[link] is the transfer window of a link whose source device
	// is inside a traced run's window, nil otherwise.
	trace [][]obs.Span
}

func newChanTransport(e *engine, f *fabric) *chanTransport {
	return &chanTransport{eng: e, fab: f, trace: make([][]obs.Span, len(e.edges))}
}

// bind gives each link inside a traced run's window its window of the
// span slab: every transfer the trace layout says it carries.
func (t *chanTransport) bind() {
	e := t.eng
	for i, edge := range e.edges {
		if edge.src < e.window {
			e.spans.declare(edge.src, obs.TrackTransfer, edge.transfers, &t.trace[i])
		}
	}
}

// reset drops the links' windows of the last run's slab, which the
// run's Result now owns.
func (t *chanTransport) reset() { clear(t.trace) }

func (t *chanTransport) start() error { return nil }

// post takes the parcel onto its link and delivers it at once — twice
// for an injected duplicate, never for a drop. The posting device
// records the transfer span, from the wire's start to its due or to
// the end of the hand-off, whichever is later: the span never ends
// before the wire, its start never decreases along a link, and it is
// never empty, even with no wire injected.
func (t *chanTransport) post(link int, p parcel) bool {
	e, f := t.eng, t.fab
	start, due, dup, drop := f.transit(link, p)
	if drop {
		return true // lost on the wire: never delivered, never on it
	}
	edge := e.edges[link]
	f.deliver(edge.dst, p.key, p.data, due, "")
	if dup != nil {
		f.deliver(edge.dst, p.key, p.data, due, dup.String())
	}
	if edge.src < e.window {
		end := max(due, e.sinceDur())
		t.trace[link] = append(t.trace[link], obs.Span{
			Device: edge.src, Track: obs.TrackTransfer,
			Cat: obs.CatTransfer, Name: p.key.start.Name,
			Start: start.Seconds(), Dur: (end - start).Seconds(),
		})
	}
	return true
}

func (t *chanTransport) shutdown() {}
