package runtime

import (
	"testing"

	"overlap/internal/obs"
)

func span(device, track int, name string, start float64) obs.Span {
	return obs.Span{Device: device, Track: track, Cat: "c", Name: name, Start: start, Dur: 1}
}

// checkStream requires a SpanLess-ordered stream holding exactly the
// want spans: nothing lost, nothing zero-valued left from a gap.
func checkStream(t *testing.T, got []obs.Span, want int) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("the stream holds %d spans, %d were recorded", len(got), want)
	}
	for i, s := range got {
		if s.Name == "" || s.Dur == 0 {
			t.Fatalf("span %d is a gap: %+v", i, s)
		}
		if i > 0 && obs.SpanLess(s, got[i-1]) {
			t.Fatalf("spans %d and %d are out of SpanLess order: %+v, %+v", i-1, i, got[i-1], s)
		}
	}
}

// TestSpanSlabUnderfilledWindows: recorders that use less than the
// layout gave them — a device whose zero-length ops record nothing, an
// edge a loop never tripped — leave gaps, and a transfer track two
// edges feed is in order per edge only. assemble closes the first and
// merges the second inside the slab: the stream it returns is the
// slab's own memory.
func TestSpanSlabUnderfilledWindows(t *testing.T) {
	var s spanSlab
	var c0, c1, e01, e03, e12 []obs.Span
	// Declared the way an engine does: the transport's edges first, then
	// the devices.
	s.declare(0, obs.TrackTransfer, 3, &e01)
	s.declare(0, obs.TrackTransfer, 3, &e03)
	s.declare(1, obs.TrackTransfer, 3, &e12)
	s.declare(0, obs.TrackCompute, 4, &c0)
	s.declare(1, obs.TrackCompute, 4, &c1)
	s.carve()
	if len(s.buf) != 17 || cap(c0) != 4 || cap(e03) != 3 {
		t.Fatalf("slab of %d spans, windows of %d and %d: want 17, 4 and 3", len(s.buf), cap(c0), cap(e03))
	}

	c0 = append(c0, span(0, obs.TrackCompute, "a", 1), span(0, obs.TrackCompute, "b", 2))
	e01 = append(e01, span(0, obs.TrackTransfer, "x", 1), span(0, obs.TrackTransfer, "x", 5))
	e03 = append(e03, span(0, obs.TrackTransfer, "y", 2), span(0, obs.TrackTransfer, "y", 3), span(0, obs.TrackTransfer, "y", 6))
	c1 = append(c1, span(1, obs.TrackCompute, "a", 1))
	// e12 records nothing.

	got := s.assemble()
	checkStream(t, got, 8)
	if &got[0] != &s.buf[0] {
		t.Fatal("every recorder stayed inside its window, yet assemble moved the stream out of the slab")
	}
	order := ""
	for _, sp := range got[2:7] {
		order += sp.Name
	}
	if order != "xyyxy" {
		t.Fatalf("device 0's transfer track merged as %q, want xyyxy", order)
	}
}

// TestSpanSlabOverfilledWindow: a recorder that outgrows its window —
// one span more than the layout counted — must not reach its neighbour's.
// Its slice reallocates away from the slab, the neighbours keep what
// they recorded, and assemble still returns every span, in order.
func TestSpanSlabOverfilledWindow(t *testing.T) {
	var s spanSlab
	var c0, x0, c1 []obs.Span
	s.declare(0, obs.TrackCompute, 2, &c0)
	s.declare(0, obs.TrackTransfer, 2, &x0)
	s.declare(1, obs.TrackCompute, 2, &c1)
	s.carve()

	x0 = append(x0, span(0, obs.TrackTransfer, "x", 1))
	c1 = append(c1, span(1, obs.TrackCompute, "n", 1), span(1, obs.TrackCompute, "n", 2))
	c0 = append(c0, span(0, obs.TrackCompute, "a", 1), span(0, obs.TrackCompute, "a", 2))
	c0 = append(c0, span(0, obs.TrackCompute, "a", 3)) // one more than the layout allows
	if s.buf[2].Name != "x" || s.buf[4].Name != "n" {
		t.Fatalf("an append past a window's end wrote into the slab: %+v", s.buf)
	}
	x0 = append(x0, span(0, obs.TrackTransfer, "x", 2), span(0, obs.TrackTransfer, "x", 3))
	if s.buf[4].Name != "n" || s.buf[5].Name != "n" {
		t.Fatalf("an append past a window's end wrote into the next window: %+v", s.buf)
	}

	got := s.assemble()
	checkStream(t, got, 8)
	if got[2].Name != "a" || got[5].Name != "x" || got[7].Name != "n" {
		t.Fatalf("spans landed on the wrong tracks: %+v", got)
	}
}
