package tensor

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"
)

// setPackCache is the test-only switch of the pack cache: off runs the
// always-freshly-packed path the cached engine is compared against.
func setPackCache(on bool) { packCacheOn.Store(on) }

// packSpec is a layout the kernels cannot read in place: the rhs's
// contraction label e sits between its two free labels h and t, so the
// rhs is packed (its lhs, [e, d], is TN and read where it lies). Every
// pack-cache test runs it and asserts the miss counter moved, so none
// of them can pass without packing.
const packSpec = "ed,het->dht"

// packOperands returns packSpec's operands: x is [e, d], w [h, e, t].
func packOperands(rng *rand.Rand, e, d, h, t int) (x, w *Tensor) {
	return Rand(rng, e, d), Rand(rng, h, e, t)
}

// TestPackCacheHitsAcrossIterations verifies the pack's purpose: a
// recurring packed operand (the decomposed loop's weight shard) packs
// once, then every later kernel execution against it is a hit — and
// the bytes never differ from the reference.
func TestPackCacheHitsAcrossIterations(t *testing.T) {
	defer setPackCache(true)
	setPackCache(true)
	rng := rand.New(rand.NewSource(31))
	x, w := packOperands(rng, 96, 4, 8, 8)
	want := ReferenceEinsum(packSpec, x, w)

	misses0 := kernelPackMisses.Value()
	first := Einsum(packSpec, x, w) // populate the entry
	if kernelPackMisses.Value() == misses0 {
		t.Fatal("the first kernel against a fresh operand did not pack it")
	}
	hits0 := kernelPackHits.Value()
	const iters = 20
	for i := 0; i < iters; i++ {
		if got := Einsum(packSpec, x, w); !got.Equal(want) || !first.Equal(want) {
			t.Fatal("cached pack produced different bytes than the reference")
		}
	}
	if gained := kernelPackHits.Value() - hits0; gained < iters {
		t.Fatalf("expected >= %d pack hits across iterations, got %g", iters, gained)
	}
}

// TestPackCacheInvalidationOnMutation is the staleness regression: any
// observable mutation of a cached operand — Set, writes through Data,
// in-place accumulation, or being the output of a kernel — must force
// a repack, so results always reflect current contents.
func TestPackCacheInvalidationOnMutation(t *testing.T) {
	defer setPackCache(true)
	setPackCache(true)
	rng := rand.New(rand.NewSource(32))
	x, w := packOperands(rng, 64, 4, 4, 8)
	check := func(stage string) {
		t.Helper()
		misses0 := kernelPackMisses.Value()
		if got, want := Einsum(packSpec, x, w), ReferenceEinsum(packSpec, x, w); !got.Equal(want) {
			t.Fatalf("%s: kernel served a stale pack (max diff %g)", stage, got.MaxDifference(want))
		}
		if stage != "warm" && kernelPackMisses.Value() == misses0 {
			t.Fatalf("%s: the mutated operand was not repacked", stage)
		}
	}
	check("cold")
	check("warm")

	w.Set(42.5, 3, 7, 1)
	check("after Set")

	w.Data()[11] = -3.25
	check("after write through Data")

	AddInPlace(w, Rand(rng, 4, 64, 8))
	check("after AddInPlace")

	// A tensor used as a kernel output and then as an operand: run()'s
	// mutation note must invalidate too.
	EinsumAddInto(w, "hk,ket->het", Rand(rng, 4, 16), Rand(rng, 16, 64, 8))
	check("after being a kernel output")

	// The destination-passing kernels an executor's buffer plan runs in
	// place: each one writes w without w ever leaving the cache's sight.
	AddInto(w, Rand(rng, 4, 64, 8), w)
	check("after AddInto in place")
	MaxInto(w, w, Rand(rng, 4, 64, 8))
	check("after MaxInto in place")
	DynamicUpdateSliceInto(w, w, Rand(rng, 1, 64, 8), []int{2, 0, 0})
	check("after DynamicUpdateSliceInto in place")
	CopyInto(w, Rand(rng, 4, 64, 8))
	check("after CopyInto")
	EinsumIntoSplitK(w, 0, "hk,ket->het", Rand(rng, 4, 16), Rand(rng, 16, 64, 8))
	check("after EinsumInto")
}

// TestPooledTensorCarriesItsPackUntilRelease pins the owner rule for a
// tensor from the exact-size free lists: it carries its pack like any
// other — a second kernel against unchanged contents is a hit, an
// overwrite repacks into the same scratch buffer — and Release takes the
// pack off it and hands the buffer back to the scratch pool, so the next
// holder of the tensor starts with none.
func TestPooledTensorCarriesItsPackUntilRelease(t *testing.T) {
	defer setPackCache(true)
	setPackCache(true)
	rng := rand.New(rand.NewSource(36))
	x := Rand(rng, 64, 4)
	w := NewPooled(4, 64, 8)
	var buf *[]float64
	for round := 0; round < 3; round++ {
		CopyInto(w, Rand(rng, 4, 64, 8))
		hits0, misses0 := kernelPackHits.Value(), kernelPackMisses.Value()
		for use := 0; use < 2; use++ {
			if got, want := Einsum(packSpec, x, w), ReferenceEinsum(packSpec, x, w); !got.Equal(want) {
				t.Fatalf("round %d: pooled operand produced wrong bytes", round)
			}
		}
		if hits, misses := kernelPackHits.Value()-hits0, kernelPackMisses.Value()-misses0; hits != 1 || misses != 1 {
			t.Fatalf("round %d: two kernels against one overwrite: %g hits and %g misses, want 1 and 1", round, hits, misses)
		}
		if len(w.packs) != 1 || w.packs[0].readers != 0 {
			t.Fatalf("round %d: the tensor carries %d packs, want one with no reader left", round, len(w.packs))
		}
		if buf == nil {
			buf = w.packs[0].buf
		} else if w.packs[0].buf != buf {
			t.Fatalf("round %d: a stale pack nobody was reading was replaced, not repacked in place", round)
		}
	}
	Poison(w)
	for _, v := range *buf {
		if v == v {
			t.Fatal("Poison left a pack element that is not NaN")
		}
	}
	Release(w)
	if len(w.packs) != 1 || w.packs[0].buf != nil {
		t.Fatal("a released tensor still carries a pack buffer")
	}
	if !raceEnabled { // the race detector makes sync.Pool drop buffers at random
		fresh0 := kernelPoolFreshBytes.Value()
		next := getBuf(4 * 64 * 8)
		if next != buf || kernelPoolFreshBytes.Value() != fresh0 {
			t.Fatal("Release did not hand the pack buffer back to the scratch pool")
		}
		putBuf(next)
	}
}

// TestPackDiesWithItsTensor pins the other half: nothing but the tensor
// refers to its pack. A caller-held operand's pack is a plain
// allocation, and once the tensor is unreachable so is the pack —
// however many other operands were packed under the same spec since.
func TestPackDiesWithItsTensor(t *testing.T) {
	defer setPackCache(true)
	setPackCache(true)
	rng := rand.New(rand.NewSource(33))
	x := Rand(rng, 32, 2)
	freed := make(chan struct{})
	misses0 := kernelPackMisses.Value()
	func() {
		w := Rand(rng, 2, 32, 4)
		Einsum(packSpec, x, w)
		if len(w.packs) != 1 {
			t.Fatalf("the operand carries %d packs, want 1", len(w.packs))
		}
		goruntime.SetFinalizer(w.packs[0], func(*pack) { close(freed) })
	}()
	for i := 0; i < 10; i++ {
		Einsum(packSpec, x, Rand(rng, 2, 32, 4))
	}
	if misses := kernelPackMisses.Value() - misses0; misses != 11 {
		t.Fatalf("11 kernels against 11 fresh operands packed %g times", misses)
	}
	deadline := time.After(10 * time.Second)
	for {
		goruntime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatal("a pack outlived the tensor it was packed from")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestReplicatedOperandPacksOnce pins the fill rule: goroutines that
// reach one unpacked operand together — the devices of a run reading a
// replicated weight — pack it once, under the tensor's lock, and the
// rest find it.
func TestReplicatedOperandPacksOnce(t *testing.T) {
	defer setPackCache(true)
	setPackCache(true)
	rng := rand.New(rand.NewSource(37))
	x, w := packOperands(rng, 48, 2, 16, 16)
	want := ReferenceEinsum(packSpec, x, w)
	misses0 := kernelPackMisses.Value()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if !Einsum(packSpec, x, w).Equal(want) {
				t.Error("wrong bytes from a pack filled under contention")
			}
		}()
	}
	close(start)
	wg.Wait()
	if misses := kernelPackMisses.Value() - misses0; misses != 1 {
		t.Fatalf("8 goroutines packed one operand %g times, want once", misses)
	}
}

// TestStalePackUnderAReaderIsReplaced: Data counts as a write, so a
// version can move while another goroutine's kernel is still reading
// the pack. The repack must then leave that buffer alone.
func TestStalePackUnderAReaderIsReplaced(t *testing.T) {
	defer setPackCache(true)
	setPackCache(true)
	rng := rand.New(rand.NewSource(38))
	w := NewPooled(8, 16)
	defer Release(w)
	CopyInto(w, Rand(rng, 8, 16))
	perm := []int{1, 0}
	reading := w.packed(perm)
	held := append([]float64(nil), *reading.buf...)
	_ = w.Data() // a reader elsewhere asks for the live slice
	again := w.packed(perm)
	if again == reading || again.buf == reading.buf {
		t.Fatal("a pack a kernel was still reading was repacked in place")
	}
	for i, v := range *reading.buf {
		if v != held[i] {
			t.Fatal("the buffer under the first reader changed")
		}
	}
	w.unpack(reading)
	w.unpack(again)
	if len(w.packs) != 1 || w.packs[0] != again {
		t.Fatalf("the tensor carries %d packs, want only the replacement", len(w.packs))
	}
}

// TestPackCacheDisabled verifies the toggle: with the cache off the
// engine packs every run, still byte-identical.
func TestPackCacheDisabled(t *testing.T) {
	defer setPackCache(true)
	rng := rand.New(rand.NewSource(34))
	x, w := packOperands(rng, 64, 4, 4, 8)
	setPackCache(true)
	on := Einsum(packSpec, x, w)
	setPackCache(false)
	hits0, misses0 := kernelPackHits.Value(), kernelPackMisses.Value()
	off := Einsum(packSpec, x, w)
	if kernelPackHits.Value() != hits0 {
		t.Fatal("disabled cache still served a hit")
	}
	if kernelPackMisses.Value() == misses0 {
		t.Fatal("disabled cache did not pack")
	}
	if !on.Equal(off) {
		t.Fatal("cache on/off produced different bytes")
	}
}

// TestPackCacheConcurrentUse exercises packs from concurrent
// goroutines — shared hits, racing first-fills, and invalidating
// mutations of a goroutine-private tensor — and is the workload the CI
// race job runs under -race. Shared tensors are only read; each
// goroutine mutates its own operand between kernels.
func TestPackCacheConcurrentUse(t *testing.T) {
	defer setPackCache(true)
	setPackCache(true)
	rng := rand.New(rand.NewSource(35))
	x, shared := packOperands(rng, 48, 2, 4, 6) // shared: a pack read by every goroutine
	want := ReferenceEinsum(packSpec, x, shared)
	misses0 := kernelPackMisses.Value()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			own := Rand(rng, 4, 48, 6)
			for i := 0; i < 50; i++ {
				if got := Einsum(packSpec, x, shared); !got.Equal(want) {
					errs <- fmt.Errorf("shared operand: wrong bytes on iteration %d", i)
					return
				}
				own.Set(rng.Float64(), i%4, i%48, i%6)
				got := Einsum(packSpec, x, own)
				ref := ReferenceEinsum(packSpec, x, own)
				if !got.Equal(ref) {
					errs <- fmt.Errorf("private operand: stale pack on iteration %d", i)
					return
				}
			}
			errs <- nil
		}(int64(100 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// One fill of the shared pack at least, and a repack of each
	// goroutine's own operand after every Set.
	if misses := kernelPackMisses.Value() - misses0; misses < goroutines*50+1 {
		t.Fatalf("%g pack misses, want at least %d", misses, goroutines*50+1)
	}
}

// TestGetZeroBufReturnsZeroedPrefix is the pool-poisoning regression:
// a recycled buffer carries the previous kernel's garbage, including
// in the oversized tail its power-of-two class rounds up to, so
// accumulator scratch must come back fully zeroed at the requested
// length no matter what was recycled.
func TestGetZeroBufReturnsZeroedPrefix(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		dirty := getBuf(100) // class 7 (128 capacity): tail beyond 100 is junk
		for i := range *dirty {
			(*dirty)[i] = 1e9
		}
		// Poison the tail the pool rounds up to, then recycle.
		full := (*dirty)[:cap(*dirty)]
		for i := range full {
			full[i] = -1e9
		}
		putBuf(dirty)
		z := getZeroBuf(70) // same class: likely reuses the poisoned buffer
		if len(*z) != 70 {
			t.Fatalf("getZeroBuf(70) returned length %d", len(*z))
		}
		for i, v := range *z {
			if v != 0 {
				t.Fatalf("trial %d: getZeroBuf element %d = %g, want 0", trial, i, v)
			}
		}
		putBuf(z)
	}
}

// TestTensorVersionTracking pins which operations count as observable
// mutations: construction is version 0; Set, Data and AddInPlace bump;
// read-only accessors do not.
func TestTensorVersionTracking(t *testing.T) {
	x := New(2, 3)
	if x.Version() != 0 {
		t.Fatalf("fresh tensor version %d, want 0", x.Version())
	}
	x.At(1, 2)
	x.Shape()
	x.NumElements()
	if x.Version() != 0 {
		t.Fatal("read-only accessors bumped the version")
	}
	x.Set(1, 0, 0)
	v1 := x.Version()
	if v1 == 0 {
		t.Fatal("Set did not bump the version")
	}
	_ = x.Data()
	v2 := x.Version()
	if v2 == v1 {
		t.Fatal("Data did not bump the version (live slice escapes)")
	}
	AddInPlace(x, New(2, 3))
	if x.Version() == v2 {
		t.Fatal("AddInPlace did not bump the version")
	}
}
