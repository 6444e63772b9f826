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

const numBufClasses = 40

var bufClasses [numBufClasses]sync.Pool

// bufClass returns the pool bin for a buffer of n float64s: the
// smallest c with 1<<c >= n.
func bufClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getBuf returns a length-n scratch buffer, reusing a pooled one when
// the size class has any. The pointer form keeps sync.Pool round trips
// allocation-free.
func getBuf(n int) *[]float64 {
	c := bufClass(n)
	if v := bufClasses[c].Get(); v != nil {
		p := v.(*[]float64)
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
	if v := bufClasses[c].Get(); v != nil {
		p := v.(*[]float64)
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

// putBuf recycles a buffer obtained from getBuf.
func putBuf(p *[]float64) {
	c := cap(*p)
	if c == 0 || c&(c-1) != 0 {
		return // only exact power-of-two capacities are pool-shaped
	}
	*p = (*p)[:c]
	bufClasses[bufClass(c)].Put(p)
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
	n := len(t.data)
	free.Lock()
	defer free.Unlock()
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
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dimension in shape " + dims(shape))
		}
		n *= d
	}
	t := takeFree(n)
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
