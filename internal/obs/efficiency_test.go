package obs

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestOverlapEfficiencyIsTheReports pins OverlapEfficiency to the
// report it skips building: over randomized streams — grouped the way
// an executor delivers them, grouped by device only, or shuffled, with
// devices out of order, negative devices the sweep ignores, and spans
// under shared names — and over the corners (empty, blocking-only, no
// wire at all, wire of zero length), it reads
// Attribute(spans).OverlapEfficiency() bit for bit, and leaves its
// input as it was.
func TestOverlapEfficiencyIsTheReports(t *testing.T) {
	blockingOnly := []Span{
		{Device: 1, Track: TrackCompute, Cat: CatCollective, Name: "all-gather.1", Start: 0, Dur: 2e-3},
		{Device: 0, Track: TrackCompute, Cat: CatCollective, Name: "all-gather.0", Start: 1e-3, Dur: 1e-3},
		{Device: 0, Track: TrackCompute, Cat: CatCompute, Name: "einsum.0", Start: 0, Dur: 3e-3},
	}
	noWire := []Span{
		{Device: 0, Track: TrackCompute, Cat: CatCompute, Name: "einsum.0", Start: 0, Dur: 1e-3},
		{Device: 0, Track: TrackCompute, Cat: CatStall, Name: "cp-done.0", Start: 1e-3, Dur: 1e-3},
		{Device: -2, Track: TrackTransfer, Cat: CatTransfer, Name: "cp-start.0", Start: 0, Dur: 1e-3},
	}
	zeroWire := []Span{
		{Device: 2, Track: TrackTransfer, Cat: CatTransfer, Name: "cp-start.0", Start: 1e-3, Dur: 0},
		{Device: 2, Track: TrackCompute, Cat: CatCompute, Name: "einsum.0", Start: 0, Dur: 2e-3},
	}
	streams := [][]Span{nil, {}, blockingOnly, noWire, zeroWire, traceSpans()}
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 300; i++ {
		spans := randomStream(rng)
		if i%5 == 0 { // devices in descending order: the sweep must group them
			slices.Reverse(spans)
		}
		streams = append(streams, spans)
	}
	for i, spans := range streams {
		before := slices.Clone(spans)
		got, want := OverlapEfficiency(spans), Attribute(spans).OverlapEfficiency()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("stream %d (%d spans): OverlapEfficiency %v (%#x), the report's %v (%#x)",
				i, len(spans), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if !slices.Equal(spans, before) {
			t.Fatalf("stream %d: OverlapEfficiency reordered its input", i)
		}
	}
	if eff := OverlapEfficiency(blockingOnly); eff != 0 {
		t.Fatalf("a blocking-only stream hides %v of its wire, want 0", eff)
	}
}
