package runtime

import (
	"slices"
	"sync"
	"unsafe"

	"overlap/internal/obs"
)

// spanSlab is a traced run's span storage: one slab sized by the trace
// layout, drawn from the span free list, cut into one window per
// recorder — a device's compute track, a fabric edge's transfers — in
// obs.SpanLess order (device, then track). Each recorder is one
// goroutine appending to its own window in time order, so after the run
// the slab is the stream at rest once assemble has closed the gaps
// unfilled windows leave and merged the tracks several recorders fed.
// Result.Trace is the slab.
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

// carve draws the slab and hands every declared recorder its window,
// after the last declaration and before any recorder runs.
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
	s.buf = takeSpans(total)
	at := 0
	for _, w := range s.wins {
		*w.rec = s.buf[at : at : at+w.n]
		at += w.n
	}
}

// reset forgets the windows and the slab, which the last run's Result
// owns now.
func (s *spanSlab) reset() {
	clear(s.wins)
	s.wins, s.buf = s.wins[:0], nil
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

// The span free list: exact-size lists of slabs, after the tensor free
// lists. A program's trace layout gives its traced runs slabs of one
// size, run after run, and a holder that is done with a run's trace —
// serve's flight recorder, when it evicts the run — hands the slab back
// with ReleaseTrace. The lists are bounded by bytes: a release that
// would take them past maxFreeSpanBytes empties every list first.
const maxFreeSpanBytes = 1 << 20

var freeSpans struct {
	sync.Mutex
	lists map[int][][]obs.Span // by length
	bytes int
}

// spanBytes is what one obs.Span occupies.
const spanBytes = int(unsafe.Sizeof(obs.Span{}))

// takeSpans returns an n-span slab, the most recently released one of
// that length if there is one. Its contents are unspecified.
func takeSpans(n int) []obs.Span {
	freeSpans.Lock()
	l := freeSpans.lists[n]
	if len(l) == 0 {
		freeSpans.Unlock()
		return make([]obs.Span, n)
	}
	buf := l[len(l)-1]
	l[len(l)-1] = nil
	freeSpans.lists[n] = l[:len(l)-1]
	freeSpans.bytes -= spanBytes * n
	freeSpans.Unlock()
	return buf
}

// ReleaseTrace hands a run's Result.Trace back to the span free list,
// for a later traced run to record into. The caller must hold the only
// reference: the next traced run of the same layout may overwrite it.
// Releasing nil does nothing.
func ReleaseTrace(trace []obs.Span) {
	buf := trace[:cap(trace)]
	n := len(buf)
	if n == 0 {
		return
	}
	clear(buf) // the names are the program's; do not pin them
	freeSpans.Lock()
	defer freeSpans.Unlock()
	if freeSpans.bytes+spanBytes*n > maxFreeSpanBytes {
		freeSpans.lists, freeSpans.bytes = nil, 0
		if spanBytes*n > maxFreeSpanBytes {
			return
		}
	}
	if freeSpans.lists == nil {
		freeSpans.lists = map[int][][]obs.Span{}
	}
	freeSpans.lists[n] = append(freeSpans.lists[n], buf)
	freeSpans.bytes += spanBytes * n
}
