package tensor

import (
	"math"
	"sync/atomic"
)

// A packed operand lives on the tensor it was packed from. The kernel
// engine packs only the layouts no kernel reads in place (kernel.go:
// direct, NT rhs and TN lhs are read where they lie), such as a
// contraction label between two free labels. Packing is a pure function
// of (permutation, tensor contents), and the decomposed loop re-reads
// the same stationary operand every iteration and on every device, so
// the packed form is kept — by the one thing that is alive exactly as
// long as its contents can be asked for again. A pack is keyed by its
// permutation and stamped with the tensor version it was packed from: a
// mutation anywhere — Set, writes through Data, in-place accumulation —
// forces a repack.
//
// A pack is reachable only through its tensor and dies with it. A
// pooled tensor's pack buffers come from the scratch pool and go back
// in Release, whose caller holds the only reference; any other tensor's
// are plain allocations, collected with it. Packing happens under the
// tensor's lock, so a replicated operand every device reads at once is
// packed by the first and found by the rest. A stale pack is repacked
// in place unless a kernel is still reading it (Data counts as a write,
// so a version can move under a reader): then it is replaced and left
// to the collector.

// packCacheOn gates reuse. It is always on outside this package's
// tests, which switch it off (setPackCache) to run the always-freshly-
// packed path as the reference.
var packCacheOn atomic.Bool

func init() { packCacheOn.Store(true) }

// pack is one packed form of a tensor: its elements in row-major order
// under the dimension permutation perm, as of version. buf is nil once
// Release has taken the buffer back.
type pack struct {
	perm    []int
	version uint64
	buf     *[]float64
	readers int // kernels reading buf now; guarded by the tensor's packMu
}

// packed resolves t to its elements packed under perm, reusing the pack
// t carries when it is current. The caller hands the pack back with
// unpack once its kernel has run.
func (t *Tensor) packed(perm []int) *pack {
	t.packMu.Lock()
	defer t.packMu.Unlock()
	version := t.Version()
	var p *pack
	at := -1
	for i, q := range t.packs {
		if sameDims(q.perm, perm) {
			p, at = q, i
			break
		}
	}
	if p != nil && p.buf != nil && p.version == version && packCacheOn.Load() {
		kernelPackHits.Inc()
		p.readers++
		return p
	}
	kernelPackMisses.Inc()
	kernelPackBytes.Add(float64(8 * len(t.data)))
	switch {
	case p == nil:
		p = &pack{perm: perm}
		t.packs = append(t.packs, p)
	case p.readers > 0:
		p = &pack{perm: perm}
		t.packs[at] = p
	}
	if p.buf == nil {
		if t.pooled {
			p.buf = getBuf(len(t.data))
		} else {
			data := make([]float64, len(t.data))
			p.buf = &data
		}
	}
	permCopy(*p.buf, t, perm, true)
	p.version = version
	p.readers++
	return p
}

// unpack ends one kernel's read of p.
func (t *Tensor) unpack(p *pack) {
	t.packMu.Lock()
	p.readers--
	t.packMu.Unlock()
}

// dropPacks returns a pooled tensor's pack buffers to the scratch pool.
// Only Release calls it: nothing else may be reading t. The emptied
// entries stay, so that the tensor's next holder, who mostly packs it
// the same way, allocates nothing to do so.
func (t *Tensor) dropPacks() {
	for _, p := range t.packs {
		if p.buf != nil {
			putBuf(p.buf)
			p.buf = nil
		}
	}
}

// Poison overwrites t's elements and every pack it carries with NaN: an
// executor's use-after-release canary, applied just before Release.
func Poison(t *Tensor) {
	nan := math.NaN()
	for i := range t.data {
		t.data[i] = nan
	}
	t.noteMutation()
	for _, p := range t.packs {
		if p.buf != nil {
			for i := range *p.buf {
				(*p.buf)[i] = nan
			}
		}
	}
}
