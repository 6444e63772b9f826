package tensor

import (
	"runtime"
	"testing"
)

// resetFree empties the free lists and the scratch classes, so a test
// sees only its own buffers whatever ran before it.
func resetFree() {
	free.Lock()
	free.lists, free.bytes = nil, 0
	clear(free.bufs[:])
	free.bufBytes = 0
	free.Unlock()
}

func freeBytes() int {
	free.Lock()
	defer free.Unlock()
	return free.bytes
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

// TestFreeListsOutliveCollections pins what made a run's allocations
// repeat: a released buffer is there for the next NewPooled of its size
// however many collections fall in between (as sync.Pools the lists
// lost it at the second one), most recently released first, and at any
// shape of that size.
func TestFreeListsOutliveCollections(t *testing.T) {
	resetFree()
	defer resetFree()
	a, b := NewPooled(4, 6), NewPooled(4, 6)
	Release(a)
	Release(b)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if got := NewPooled(3, 8); got != b {
		t.Fatal("the most recently released buffer did not survive three collections")
	} else if got.Shape()[0] != 3 || got.Shape()[1] != 8 || !got.Pooled() {
		t.Fatalf("recycled tensor has shape %v pooled=%v", got.Shape(), got.Pooled())
	}
	if got := NewPooled(24); got != a {
		t.Fatal("the earlier released buffer did not survive three collections")
	}
	if got := NewPooled(24); got == a || got == b {
		t.Fatal("a buffer was handed out twice")
	}
	if n := freeBytes(); n != 0 {
		t.Fatalf("free lists account %d bytes with nothing in them", n)
	}
}

// TestFreeListsBounded pins the bound: releases past maxFreeBytes empty
// the lists instead of growing them, sizes nobody asks for again go with
// them, and a tensor over the bound on its own is never kept.
func TestFreeListsBounded(t *testing.T) {
	defer func(b int) { maxFreeBytes = b; resetFree() }(maxFreeBytes)
	maxFreeBytes = 1 << 20
	resetFree()
	const n = 16 << 10 // 128 KiB each
	stale := NewPooled(7)
	Release(stale)
	held := make([]*Tensor, maxFreeBytes/(8*n)+1)
	for i := range held {
		held[i] = NewPooled(n)
	}
	for i, h := range held {
		Release(h)
		if got := freeBytes(); got > maxFreeBytes {
			t.Fatalf("after %d releases the lists hold %d bytes, bound %d", i+1, got, maxFreeBytes)
		}
	}
	if got := freeBytes(); got == 0 || got%(8*n) != 0 {
		t.Fatalf("the lists hold %d bytes: want some of the %d-byte buffers and nothing else", got, 8*n)
	}
	if NewPooled(7) == stale {
		t.Fatal("a size nobody asked for survived the flush")
	}
	Release(NewPooled(maxFreeBytes/8 + 1))
	if got := freeBytes(); got != 0 {
		t.Fatalf("a tensor over the bound on its own was kept: lists hold %d bytes", got)
	}
}

// TestScratchOutlivesCollections pins what made a kernel's scratch
// allocations repeat: a returned buffer is there for the next request
// of its class however many collections fall in between (as
// sync.Pools the classes lost it to the first miss after one), most
// recently returned first, and the classes stay under maxFreeBytes.
func TestScratchOutlivesCollections(t *testing.T) {
	defer func(b int) { maxFreeBytes = b; resetFree() }(maxFreeBytes)
	resetFree()
	a, b := getBuf(100), getBuf(128)
	putBuf(a)
	putBuf(b)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if got := getBuf(70); got != b || len(*got) != 70 {
		t.Fatal("the most recently returned scratch buffer did not survive three collections")
	}
	if got := getZeroBuf(128); got != a {
		t.Fatal("the earlier returned scratch buffer did not survive three collections")
	}

	maxFreeBytes = 8 * 256
	resetFree()
	putBuf(a)
	putBuf(b)
	if x, y := getBuf(128), getBuf(128); x != b || y != a {
		t.Fatal("two buffers under the bound were not both kept")
	}
	putBuf(a)
	putBuf(getBuf(512)) // over the bound on its own
	if got := getBuf(128); got == a {
		t.Fatal("a buffer over the bound did not empty the classes")
	}
	if freeBytesOfScratch() != 0 {
		t.Fatal("a buffer over the bound on its own was kept")
	}
}

func freeBytesOfScratch() int {
	free.Lock()
	defer free.Unlock()
	return free.bufBytes
}

// TestStash pins the stash: a release waits there for its owner's next
// draw of the size, at the draw's shape; a size it never kept comes
// from the shared lists; Drain hands everything to the shared lists
// and leaves the stash empty.
func TestStash(t *testing.T) {
	resetFree()
	defer resetFree()
	shared := NewPooled(6)
	Release(shared)

	var s Stash
	a := s.New(4, 6)
	s.Release(a)
	if freeBytes() != 8*6 {
		t.Fatal("a stash release reached the shared lists")
	}
	if got := s.New(2, 12); got != a || !got.Pooled() || got.Dim(0) != 2 || got.Dim(1) != 12 {
		t.Fatalf("the stash did not hand back its own buffer at the new shape: %v", got.Shape())
	}
	if got := s.New(3, 2); got != shared {
		t.Fatal("a size the stash never kept did not come from the shared lists")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("releasing a tensor twice into a stash did not panic")
			}
		}()
		s.Release(a)
		s.Release(a)
	}()
	s.Release(shared)
	s.Drain()
	if got := freeBytes(); got != 8*(24+6) {
		t.Fatalf("after Drain the shared lists hold %d bytes, want %d", got, 8*(24+6))
	}
	s.New(24)
	s.New(6)
	if got := freeBytes(); got != 0 {
		t.Fatalf("the shared lists still hold %d bytes after both sizes were drawn again", got)
	}
}
