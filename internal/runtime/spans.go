package runtime

import (
	"sync"
	"unsafe"

	"overlap/internal/obs"
)

// The span free list: exact-size lists of slabs, after the tensor free
// lists. A program's timing schedule bounds its traced runs' spans, so
// they draw slabs of one size, run after run, and a holder that is done
// with a run's trace — serve's flight recorder, when it evicts the run —
// hands the slab back with ReleaseTrace. The lists are bounded by bytes: a release that
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
