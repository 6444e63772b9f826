package hlo

import (
	"math"
	"testing"
)

// TestPeakMemorySaturates: sums that would wrap int64 read as
// math.MaxInt64, never as a small or negative peak — whether one result
// is past it or only the total is.
func TestPeakMemorySaturates(t *testing.T) {
	one := NewComputation("one")
	one.Copy(one.Parameter(0, "a", []int{1 << 62, 4}))
	two := NewComputation("two")
	two.Copy(two.Parameter(0, "a", []int{1 << 30, 1 << 30})) // 2^62 bytes each, 2^63 live
	for _, c := range []*Computation{one, two} {
		if got := PeakMemory(c).PeakBytes; got != math.MaxInt64 {
			t.Errorf("%s: PeakBytes = %d, want it saturated", c.Name, got)
		}
	}
}

func TestPeakMemorySimpleChain(t *testing.T) {
	c := NewComputation("chain")
	a := c.Parameter(0, "a", []int{256}) // 1 KiB
	b := c.Copy(a)                       // +1 KiB
	d := c.Copy(b)                       // b dies after this
	c.Copy(d)
	stats := PeakMemory(c)
	// Peak: parameter + two intermediate copies live at once = 3 KiB.
	if stats.PeakBytes != 3*1024 {
		t.Fatalf("PeakBytes = %d, want %d", stats.PeakBytes, 3*1024)
	}
	if stats.ParameterBytes != 1024 {
		t.Fatalf("ParameterBytes = %d", stats.ParameterBytes)
	}
}

func TestPeakMemoryReshapeAndTupleAreFree(t *testing.T) {
	c := NewComputation("free")
	a := c.Parameter(0, "a", []int{256})
	r := c.Reshape(c.Copy(a), 16, 16)
	c.Tuple(r)
	stats := PeakMemory(c)
	if stats.PeakBytes != 2048 {
		t.Fatalf("PeakBytes = %d, want 2048 (reshaping a dying intermediate and the tuple must be free)", stats.PeakBytes)
	}
}

func TestPeakMemoryReshapeOfLiveOrBorrowedValueCopies(t *testing.T) {
	// A parameter is not the schedule's to reinterpret, and a value read
	// again later cannot change shape under its other reader.
	c := NewComputation("copies")
	a := c.Parameter(0, "a", []int{256})
	c.Reshape(a, 16, 16)
	if got := PeakMemory(c).PeakBytes; got != 2048 {
		t.Fatalf("reshape of a parameter: PeakBytes = %d, want 2048", got)
	}
	c = NewComputation("copies2")
	a = c.Parameter(0, "a", []int{256})
	x := c.Copy(a)
	r := c.Reshape(x, 16, 16)
	c.Tuple(r, x)
	if got := PeakMemory(c).PeakBytes; got != 3072 {
		t.Fatalf("reshape of a value still live: PeakBytes = %d, want 3072", got)
	}
}

func TestPeakMemoryFusionCountsBodyTemporaries(t *testing.T) {
	// While the fusion runs its body holds a slice and a product beside
	// the result; afterwards only the result remains.
	body := NewComputation("fused")
	p := body.Parameter(0, "p", []int{256})
	q := body.Copy(p)
	body.Add(q, q)

	c := NewComputation("outer")
	a := c.Parameter(0, "a", []int{256})
	f := c.Fusion("", body, a)
	c.Copy(f)
	stats := PeakMemory(c)
	// Parameter + fusion result + the body's copy, at the fusion.
	if stats.PeakBytes != 3*1024 || stats.PeakIndex != 1 {
		t.Fatalf("PeakBytes = %d at %d, want %d at the fusion", stats.PeakBytes, stats.PeakIndex, 3*1024)
	}
}

func TestPeakMemoryInPlaceUpdate(t *testing.T) {
	// An accumulation chain of DynamicUpdateSlices must not allocate a
	// fresh buffer per step.
	c := NewComputation("dus")
	upd := c.Parameter(0, "u", []int{64}) // 256 B
	base := c.Zeros("base", []int{256})   // 1 KiB
	cur := base
	for i := 0; i < 4; i++ {
		cur = c.DynamicUpdateSlice(cur, upd, []DynOffset{Static(i * 64)})
	}
	stats := PeakMemory(c)
	want := int64(256 + 1024) // parameter + single result buffer
	if stats.PeakBytes != want {
		t.Fatalf("PeakBytes = %d, want %d (in-place chain)", stats.PeakBytes, want)
	}
}

func TestPeakMemoryInPlaceUpdateKeepsItsBuffer(t *testing.T) {
	// The update reuses the base's storage, so that storage stays live
	// for as long as the update's result is read — here across two
	// later temporaries, where the peak is.
	c := NewComputation("dus-held")
	upd := c.Parameter(0, "u", []int{64}) // 256 B
	base := c.Zeros("base", []int{256})   // 1 KiB
	acc := c.DynamicUpdateSlice(base, upd, []DynOffset{Static(0)})
	x := c.Copy(upd)
	y := c.Copy(x)
	c.Tuple(acc, y)
	stats := PeakMemory(c)
	want := int64(256 + 1024 + 256 + 256)
	if stats.PeakBytes != want {
		t.Fatalf("PeakBytes = %d, want %d (the accumulator is live under x and y)", stats.PeakBytes, want)
	}
}

func TestPeakMemoryParametersLiveFromTheStart(t *testing.T) {
	// An input is resident before the step begins, wherever the schedule
	// names it: b counts under the temporaries that precede it.
	c := NewComputation("late-param")
	a := c.Parameter(0, "a", []int{256})
	x := c.Copy(a)
	y := c.Copy(x)
	b := c.Parameter(1, "b", []int{256})
	c.Tuple(y, b)
	stats := PeakMemory(c)
	if stats.PeakBytes != 4*1024 || stats.ParameterBytes != 2*1024 {
		t.Fatalf("PeakBytes = %d (parameters %d), want 4096 (2048): both inputs under x and y", stats.PeakBytes, stats.ParameterBytes)
	}
}

func TestPeakMemorySharedBaseAllocates(t *testing.T) {
	// If the base is used again later, the update cannot be in place.
	c := NewComputation("dus2")
	upd := c.Parameter(0, "u", []int{64})
	base := c.Zeros("base", []int{256})
	dus := c.DynamicUpdateSlice(base, upd, []DynOffset{Static(0)})
	c.Tuple(dus, base) // base survives the update
	stats := PeakMemory(c)
	want := int64(256 + 1024 + 1024)
	if stats.PeakBytes != want {
		t.Fatalf("PeakBytes = %d, want %d (copy-on-write)", stats.PeakBytes, want)
	}
}

func TestPeakMemoryAsyncPairAliases(t *testing.T) {
	c := NewComputation("async")
	a := c.Parameter(0, "a", []int{256})
	pairs := []SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}}
	start := c.CollectivePermuteStart(a, pairs)
	done := c.CollectivePermuteDone(start)
	c.Copy(done)
	stats := PeakMemory(c)
	// Parameter + receive buffer + final copy.
	want := int64(1024 + 1024 + 1024)
	if stats.PeakBytes != want {
		t.Fatalf("PeakBytes = %d, want %d", stats.PeakBytes, want)
	}
}

func TestPeakMemoryLoopCountsBodyPeak(t *testing.T) {
	body := NewComputation("body")
	p := body.Parameter(0, "p", []int{256})
	q := body.Copy(p)
	body.Tuple(body.Copy(q))

	c := NewComputation("outer")
	x := c.Parameter(0, "x", []int{256})
	c.Loop(body, 3, 0, x)
	stats := PeakMemory(c)
	if stats.PeakBytes <= 1024 {
		t.Fatalf("PeakBytes = %d, loop body peak not accounted", stats.PeakBytes)
	}
}

func TestPeakMemoryScheduleSensitivity(t *testing.T) {
	// Two schedules of the same graph: computing consumers eagerly
	// (depth-first) keeps fewer temporaries live than computing all
	// producers first.
	build := func(eager bool) *Computation {
		c := NewComputation("sched")
		a := c.Parameter(0, "a", []int{256})
		if eager {
			x := c.Copy(a)
			x2 := c.Copy(x)
			y := c.Copy(a)
			y2 := c.Copy(y)
			c.Tuple(x2, y2)
		} else {
			x := c.Copy(a)
			y := c.Copy(a)
			x2 := c.Copy(x)
			y2 := c.Copy(y)
			c.Tuple(x2, y2)
		}
		return c
	}
	eager := PeakMemory(build(true))
	wide := PeakMemory(build(false))
	if eager.PeakBytes > wide.PeakBytes {
		t.Fatalf("eager schedule %d > wide schedule %d", eager.PeakBytes, wide.PeakBytes)
	}
}
