package runtime

import (
	"slices"

	"overlap/internal/obs"
)

// spanSlab is a traced run's span storage: one allocation sized by the
// trace layout, cut into one window per recorder — a device's compute
// track, a fabric edge's transfers — in obs.SpanLess order (device,
// then track). Each recorder is one goroutine appending to its own
// window in time order, so after the run the slab is the stream at rest
// once assemble has closed the gaps unfilled windows leave and merged
// the tracks several recorders fed. Result.Trace is the slab.
type spanSlab struct {
	buf  []obs.Span
	wins []spanWindow
}

// spanWindow is one recorder's share of the slab. carve sets *rec to
// the window with its capacity cut to size: a recorder that appends
// more than the layout gave it reallocates, away from the slab, and
// cannot write into its neighbour's window.
type spanWindow struct {
	device, track, n int
	rec              *[]obs.Span
}

// declare reserves n spans for one recorder of a device's track;
// recorders of one (device, track) get their windows in declaration
// order.
func (s *spanSlab) declare(device, track, n int, rec *[]obs.Span) {
	s.wins = append(s.wins, spanWindow{device: device, track: track, n: n, rec: rec})
}

// carve allocates the slab and hands every declared recorder its
// window, after the last declaration and before any recorder runs.
func (s *spanSlab) carve() {
	slices.SortStableFunc(s.wins, func(a, b spanWindow) int {
		if a.device != b.device {
			return a.device - b.device
		}
		return a.track - b.track
	})
	total := 0
	for _, w := range s.wins {
		total += w.n
	}
	s.buf = make([]obs.Span, total)
	at := 0
	for _, w := range s.wins {
		*w.rec = s.buf[at : at : at+w.n]
		at += w.n
	}
}

// assemble returns the recorded stream in obs.SpanLess order, once
// every recorder has stopped. A recorder that stayed inside its window
// wrote at or after where its spans end up, so closing the gaps is one
// forward pass over the slab itself; only if some recorder outgrew its
// window is the stream rebuilt elsewhere.
func (s *spanSlab) assemble() []obs.Span {
	total, spilled := 0, false
	for _, w := range s.wins {
		total += len(*w.rec)
		spilled = spilled || len(*w.rec) > w.n
	}
	out := s.buf
	if spilled {
		out = make([]obs.Span, total)
	}
	// The windows of one (device, track) are each in time order;
	// together they need not be.
	merge := func(track []obs.Span) {
		if !slices.IsSortedFunc(track, spanCompare) {
			slices.SortStableFunc(track, spanCompare)
		}
	}
	at, trackAt := 0, 0
	for i, w := range s.wins {
		if i > 0 && (s.wins[i-1].device != w.device || s.wins[i-1].track != w.track) {
			merge(out[trackAt:at])
			trackAt = at
		}
		at += copy(out[at:], *w.rec)
	}
	merge(out[trackAt:at])
	return out[:at]
}

// spanCompare is obs.SpanLess as a three-way comparison.
func spanCompare(a, b obs.Span) int {
	switch {
	case obs.SpanLess(a, b):
		return -1
	case obs.SpanLess(b, a):
		return 1
	}
	return 0
}
