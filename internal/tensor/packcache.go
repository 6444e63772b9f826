package tensor

import (
	"sync"
	"sync/atomic"
)

// Persistent pack cache: the kernel engine's permute-packing of a
// non-direct operand is a pure function of (plan, tensor contents), so
// the packed buffer is a cacheable artifact. The decomposed loop is the
// motivating workload — every iteration re-runs the same partial-einsum
// spec against the same weight shard, and before this cache each
// iteration paid the full permCopy again (for skinny partials the pack
// costs as much as the GEMM itself). Entries live on the plan (plans
// are cached per spec string for the process lifetime) and are keyed by
// tensor identity + version, so a mutation anywhere — Set, writes
// through Data, in-place accumulation — invalidates by version
// mismatch and forces a repack.
//
// Ownership: cached buffers are owned by the cache and are never
// returned to the scratch pool, even on eviction — a concurrent kernel
// may still be reading an evicted buffer, and recycling it through the
// pool would let another kernel overwrite it mid-read. Evicted buffers
// are simply dropped for the GC. The cache is bounded (entries per
// plan side), so churn from non-recurring operands (the circulating
// activation shards) evicts in LRU order instead of growing without
// bound. Pooled tensors (NewPooled) never enter: an executor's own
// buffers are recycled, not revisited, so a pack keyed on one could
// only pin a finished run's memory — they pack into pooled scratch like
// the cache-off path.

// packCacheMaxEntries bounds one plan side's cache. A program has a
// handful of persistent weight tensors per einsum spec (one per device
// goroutine at most), so a small bound holds every recurring operand
// while churning transient ones.
const packCacheMaxEntries = 64

// packCacheOn gates the cache. It is always on outside this package's
// tests, which switch it off (setPackCache) to run the always-freshly-
// packed path as the reference: disabling only changes where packed
// bytes come from, never the result bytes.
var packCacheOn atomic.Bool

func init() { packCacheOn.Store(true) }

// packEntry is one cached packed operand: the packed row-major buffer
// and the tensor version it was packed from.
type packEntry struct {
	version uint64
	data    []float64
}

// packCache is one plan side's tensor→pack map with LRU eviction. The
// mutex guards the map and recency list only; packing itself happens
// outside the lock (two goroutines racing to fill the same key both
// pack — identical bytes — and one store wins).
type packCache struct {
	mu      sync.Mutex
	entries map[*Tensor]*packEntry
	recency []*Tensor // least recently used first
}

func newPackCache() *packCache {
	return &packCache{entries: make(map[*Tensor]*packEntry)}
}

// lookup returns the cached pack for t at its current version, or nil.
func (pc *packCache) lookup(t *Tensor, version uint64) []float64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[t]
	if !ok || e.version != version {
		return nil
	}
	pc.touch(t)
	return e.data
}

// store inserts or replaces t's pack, evicting the least recently used
// entry when the side is full.
func (pc *packCache) store(t *Tensor, version uint64, data []float64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, ok := pc.entries[t]; ok {
		pc.entries[t] = &packEntry{version: version, data: data}
		pc.touch(t)
		return
	}
	if len(pc.entries) >= packCacheMaxEntries {
		oldest := pc.recency[0]
		pc.recency = pc.recency[1:]
		delete(pc.entries, oldest)
		kernelPackEvictions.Inc()
	}
	pc.entries[t] = &packEntry{version: version, data: data}
	pc.recency = append(pc.recency, t)
}

// touch moves t to the most-recently-used end. Called with mu held.
func (pc *packCache) touch(t *Tensor) {
	for i, o := range pc.recency {
		if o == t {
			copy(pc.recency[i:], pc.recency[i+1:])
			pc.recency[len(pc.recency)-1] = t
			return
		}
	}
}

// packedOperand resolves one non-direct operand to its packed buffer:
// from the plan's cache when enabled and current, otherwise by packing
// — into a cache-owned buffer on a cacheable miss, or into pooled
// scratch when the cache is off or the operand is a pooled tensor. The second return is the pooled
// scratch to release after the kernel runs (nil when the bytes are
// cache-owned).
func packedOperand(pc *packCache, t *Tensor, perm []int, n int) ([]float64, *[]float64) {
	if pc == nil || t.pooled || !packCacheOn.Load() {
		buf := getBuf(n)
		permCopy(*buf, t, perm, true)
		return *buf, buf
	}
	version := t.Version()
	if data := pc.lookup(t, version); data != nil {
		kernelPackHits.Inc()
		return data, nil
	}
	kernelPackMisses.Inc()
	kernelPackBytes.Add(float64(8 * n))
	data := make([]float64, n)
	permCopy(data, t, perm, true)
	pc.store(t, version, data)
	return data, nil
}

// PackCacheTensors returns the tensors the pack caches of every einsum
// plan currently key on, in no particular order. Each is kept
// reachable, with its pack, until evicted — which makes the list the
// thing to inspect when asking what a finished run left behind.
func PackCacheTensors() []*Tensor {
	var out []*Tensor
	einsumCache.Range(func(_, v any) bool {
		if plan := v.(*einsumEntry).plan; plan != nil {
			for _, pc := range []*packCache{plan.lhsPack, plan.rhsPack} {
				if pc != nil {
					pc.mu.Lock()
					out = append(out, pc.recency...)
					pc.mu.Unlock()
				}
			}
		}
		return true
	})
	return out
}
