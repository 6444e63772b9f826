package tensor

import (
	"math"
	"math/bits"
	"sync"
)

// Size-keyed scratch-buffer pool for the kernel engine. A packed
// operand or accumulator lives in a buffer from here for one kernel
// call and goes straight back, so recycling them keeps the decomposed
// loop's steady state free of per-step data-sized allocations. Buffers
// are binned by power-of-two capacity; a returned buffer serves any later
// request of its class. Contents are not zeroed on reuse: getBuf is for
// scratch that a kernel path fully overwrites before reading (packed
// operands), while accumulator scratch — anything a kernel adds into
// without first storing — must come from getZeroBuf, which clears the
// requested prefix. A recycled buffer's tail beyond the request is
// never guaranteed zero (the pool hands back the larger of its class),
// so no call site may rely on it.
//
// The classes are free lists beside the whole-tensor ones below, held
// the same way: strongly, most recently returned on top, under the
// same lock, and bounded by maxFreeBytes on their own account. They
// were sync.Pools. A collection moved those to a victim cache that the
// first miss then threw away, and a buffer in one P's private slot was
// out of reach of the others, so how much scratch a run re-allocated
// depended on where the collector and the scheduler fell (the
// benchmark's training workload allocated 3 to 9 KiB a step with
// nothing changed).

const numBufClasses = 40

// bufClass returns the pool bin for a buffer of n float64s: the
// smallest c with 1<<c >= n.
func bufClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// takeBuf pops the most recently returned buffer of class c, or nil.
func takeBuf(c int) *[]float64 {
	free.Lock()
	defer free.Unlock()
	l := free.bufs[c]
	if len(l) == 0 {
		return nil
	}
	p := l[len(l)-1]
	l[len(l)-1] = nil
	free.bufs[c] = l[:len(l)-1]
	free.bufBytes -= 8 * cap(*p)
	return p
}

// getBuf returns a length-n scratch buffer, reusing a pooled one when
// the size class has any. The pointer form keeps a round trip through
// the lists allocation-free.
func getBuf(n int) *[]float64 {
	c := bufClass(n)
	if p := takeBuf(c); p != nil {
		*p = (*p)[:n]
		kernelPoolReusedBytes.Add(float64(8 * n))
		return p
	}
	s := make([]float64, 1<<c)
	s = s[:n]
	kernelPoolFreshBytes.Add(float64(8 * n))
	return &s
}

// getZeroBuf returns a length-n scratch buffer with every element
// guaranteed zero. Fresh pool misses are already zeroed by make;
// recycled buffers carry whatever the previous kernel left, including
// in the oversized tail the pool rounds capacities up to, so the
// requested prefix is cleared explicitly. Split-K private accumulators
// depend on this: they are combined into the output without being
// fully stored first.
func getZeroBuf(n int) *[]float64 {
	c := bufClass(n)
	if p := takeBuf(c); p != nil {
		*p = (*p)[:n]
		s := *p
		for i := range s {
			s[i] = 0
		}
		kernelPoolReusedBytes.Add(float64(8 * n))
		return p
	}
	s := make([]float64, 1<<c)
	s = s[:n]
	kernelPoolFreshBytes.Add(float64(8 * n))
	return &s
}

// putBuf recycles a buffer obtained from getBuf, emptying every class
// first if it would take them past maxFreeBytes; a buffer larger than
// the bound on its own is left to the collector.
func putBuf(p *[]float64) {
	free.Lock()
	defer free.Unlock()
	putBufLocked(p)
}

// putBufLocked is putBuf with free already locked.
func putBufLocked(p *[]float64) {
	c := cap(*p)
	if c == 0 || c&(c-1) != 0 {
		return // only exact power-of-two capacities are pool-shaped
	}
	*p = (*p)[:c]
	if free.bufBytes+8*c > maxFreeBytes {
		clear(free.bufs[:])
		free.bufBytes = 0
		if 8*c > maxFreeBytes {
			return
		}
	}
	k := bufClass(c)
	free.bufs[k] = append(free.bufs[k], p)
	free.bufBytes += 8 * c
}

// Exact-size free lists for whole tensors. The scratch classes above
// round capacities up to a power of two, which is right for transient
// kernel scratch but would inflate an executor's value buffers by up
// to 2x; an executor's buffers also recur at exactly the same sizes
// run after run (the same program, the same shapes), so these lists
// are keyed by exact element count. A pooled tensor is owned by exactly
// one holder between NewPooled and Release.
//
// The lists hold their buffers strongly, most recently released on
// top, and are bounded by bytes rather than by the collector: a
// Release that would take them past maxFreeBytes empties every list
// first, so sizes no run asks for any more cannot pin memory for good
// and a working set under the bound is never re-allocated. They were
// sync.Pools, which drop what sat idle across two collections; what a
// run found in them then depended on where the collector's cycles fell
// between two runs (one step of the benchmark's training workload
// allocated 224, 326 or 365 KiB with nothing changed but GOGC).
// maxFreeBytes is a variable only so that a test can lower it.
var maxFreeBytes = 64 << 20

var free struct {
	sync.Mutex
	lists map[int][]*Tensor // by element count
	bytes int               // held by lists

	bufs     [numBufClasses][]*[]float64 // scratch, by class
	bufBytes int                         // held by bufs
}

// takeFree pops the most recently released n-element tensor, or nil.
func takeFree(n int) *Tensor {
	free.Lock()
	defer free.Unlock()
	l := free.lists[n]
	if len(l) == 0 {
		return nil
	}
	t := l[len(l)-1]
	l[len(l)-1] = nil
	free.lists[n] = l[:len(l)-1]
	free.bytes -= 8 * n
	return t
}

// putFree pushes t onto its list, emptying all of them first if t
// would not fit under maxFreeBytes; a tensor larger than the bound on
// its own is left to the collector.
func putFree(t *Tensor) {
	free.Lock()
	defer free.Unlock()
	putFreeLocked(t)
}

// putFreeLocked is putFree with free already locked.
func putFreeLocked(t *Tensor) {
	n := len(t.data)
	if free.bytes+8*n > maxFreeBytes {
		free.lists, free.bytes = nil, 0
		if 8*n > maxFreeBytes {
			return
		}
	}
	if free.lists == nil {
		free.lists = map[int][]*Tensor{}
	}
	free.lists[n] = append(free.lists[n], t)
	free.bytes += 8 * n
}

// A Stash is one goroutine's own front for the free lists and the
// scratch classes. Release keeps a tensor for its owner instead of
// handing it to the shared lists, and a kernel given the stash keeps
// its scratch there the same way; New, and the kernel's next request,
// serve a size from what the owner kept before they fall back to the
// shared lists, and Drain hands everything kept to the shared lists.
// What its owner takes from the shared lists is then fixed by the
// owner's own sequence of requests and returns, not by how other
// goroutines' interleave with it: goroutines that each keep a stash
// for a round and drain it after they have all joined take the same
// number of buffers of each size from the shared lists every round,
// however they were scheduled, so a round that found enough there once
// always does. The zero Stash is ready; one goroutine at a time may
// use it. A kernel given a nil Stash uses the shared classes alone.
type Stash struct {
	kept []*Tensor    // most recently released last
	bufs []*[]float64 // kernel scratch, likewise
}

// New is NewPooled, served first from the tensors the stash kept: the
// most recently released one of the size.
func (s *Stash) New(shape ...int) *Tensor {
	n := elements(shape)
	for i := len(s.kept) - 1; i >= 0; i-- {
		if t := s.kept[i]; len(t.data) == n {
			last := len(s.kept) - 1
			copy(s.kept[i:], s.kept[i+1:])
			s.kept[last] = nil
			s.kept = s.kept[:last]
			t.setShape(shape)
			t.pooled = true
			return t
		}
	}
	return NewPooled(shape...)
}

// Release is the package's Release into the stash: t, which the
// caller alone holds, waits there for the owner's next New of its size
// or for Drain.
func (s *Stash) Release(t *Tensor) {
	if !t.pooled {
		panic("tensor: Release of a tensor that is not pooled (or already released)")
	}
	t.pooled = false
	s.kept = append(s.kept, t)
}

// Drain hands every tensor and scratch buffer the stash kept to the
// shared lists, oldest first.
func (s *Stash) Drain() {
	if len(s.kept) == 0 && len(s.bufs) == 0 {
		return
	}
	free.Lock()
	defer free.Unlock()
	for i, t := range s.kept {
		putFreeLocked(t)
		s.kept[i] = nil
	}
	for i, p := range s.bufs {
		putBufLocked(p)
		s.bufs[i] = nil
	}
	s.kept, s.bufs = s.kept[:0], s.bufs[:0]
}

// getBuf is the package's getBuf, served first from the scratch the
// stash kept.
func (s *Stash) getBuf(n int) *[]float64 {
	if p := s.keptBuf(n); p != nil {
		return p
	}
	return getBuf(n)
}

// getZeroBuf is the package's getZeroBuf, served first from the
// scratch the stash kept.
func (s *Stash) getZeroBuf(n int) *[]float64 {
	if p := s.keptBuf(n); p != nil {
		clear(*p)
		return p
	}
	return getZeroBuf(n)
}

// keptBuf pops the most recently kept scratch buffer of n's class, at
// length n, or returns nil.
func (s *Stash) keptBuf(n int) *[]float64 {
	if s == nil {
		return nil
	}
	want := 1 << bufClass(n)
	for i := len(s.bufs) - 1; i >= 0; i-- {
		if p := s.bufs[i]; cap(*p) == want {
			last := len(s.bufs) - 1
			copy(s.bufs[i:], s.bufs[i+1:])
			s.bufs[last] = nil
			s.bufs = s.bufs[:last]
			*p = (*p)[:n]
			kernelPoolReusedBytes.Add(float64(8 * n))
			return p
		}
	}
	return nil
}

// putBuf keeps a buffer from the stash's getBuf or getZeroBuf for the
// stash's owner; a nil stash hands it to the shared classes.
func (s *Stash) putBuf(p *[]float64) {
	if s == nil {
		putBuf(p)
		return
	}
	s.bufs = append(s.bufs, p)
}

// elements is the element count of shape, which must have no negative
// dimension.
func elements(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in shape " + dims(shape))
		}
		n *= d
	}
	return n
}

// NewPooled returns a tensor of the given shape from the exact-size
// free lists, or a new one when its list is empty. Its contents are
// unspecified: the caller must overwrite every element before reading
// any. The caller owns it until Release.
func NewPooled(shape ...int) *Tensor {
	if t := TakePooled(shape...); t != nil {
		return t
	}
	t := New(shape...)
	t.pooled = true
	return t
}

// TakePooled is NewPooled without the fallback: it returns nil when the
// free list of the shape's size is empty, for a caller that must not
// put a buffer of its own onto the lists when it releases what it took.
func TakePooled(shape ...int) *Tensor {
	t := takeFree(elements(shape))
	if t != nil {
		t.setShape(shape)
		t.pooled = true
	}
	return t
}

// Pooled reports whether t came from NewPooled and has not been
// released.
func (t *Tensor) Pooled() bool { return t.pooled }

// Release hands a tensor obtained from NewPooled back to its free
// list. The caller must hold the only reference: the next NewPooled of
// the same size may return it. Releasing any other tensor, or the same
// one twice, panics.
func Release(t *Tensor) {
	if !t.pooled {
		panic("tensor: Release of a tensor that is not pooled (or already released)")
	}
	t.pooled = false
	putFree(t)
}

// Poison overwrites t's elements with NaN: an executor's
// use-after-release canary, applied just before Release.
func Poison(t *Tensor) {
	nan := math.NaN()
	for i := range t.data {
		t.data[i] = nan
	}
}
