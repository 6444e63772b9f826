package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// oracleAttribute and oracleNewRunTrace are the bodies Attribute and
// NewRunTrace had while they copied the span stream per device, built
// each device's compute list by append, always copied and sorted before
// assembling, and rebuilt a wire span's Under list per span. They stay
// here, untouched, as the reference the current implementations must
// match float for float and byte for byte.

func oracleAttribute(spans []Span) AttributionReport {
	byDevice := map[int][]Span{}
	maxDev := -1
	for _, s := range spans {
		byDevice[s.Device] = append(byDevice[s.Device], s)
		if s.Device > maxDev {
			maxDev = s.Device
		}
	}

	type acc struct {
		blocking              bool
		wire, hidden, exposed float64
		under                 map[string]float64
	}
	accs := map[string]*acc{}
	get := func(name string) *acc {
		a, ok := accs[name]
		if !ok {
			a = &acc{under: map[string]float64{}}
			accs[name] = a
		}
		return a
	}

	var report AttributionReport
	for dev := 0; dev <= maxDev; dev++ {
		devSpans := byDevice[dev]
		var compute []Span
		for _, s := range devSpans {
			if s.Track == TrackCompute && s.Cat == CatCompute {
				compute = append(compute, s)
			}
		}
		sort.Slice(compute, func(i, j int) bool { return compute[i].Start < compute[j].Start })

		for _, s := range devSpans {
			switch {
			case s.Track == TrackTransfer && s.Cat == CatTransfer:
				a := get(s.Name)
				a.wire += s.Dur
				hidden := 0.0
				for _, c := range compute {
					if c.Start >= s.Start+s.Dur {
						break
					}
					lo, hi := maxf(c.Start, s.Start), minf(c.Start+c.Dur, s.Start+s.Dur)
					if hi > lo {
						hidden += hi - lo
						a.under[c.Name] += hi - lo
					}
				}
				if hidden > s.Dur {
					hidden = s.Dur // overlapping compute spans cannot hide more than the wire
				}
				a.hidden += hidden
				a.exposed += s.Dur - hidden
			case s.Track == TrackCompute && s.Cat == CatCollective:
				a := get(s.Name)
				a.blocking = true
				a.wire += s.Dur
				a.exposed += s.Dur
			case s.Track == TrackCompute && s.Cat == CatStall:
				report.StallSeconds += s.Dur
			}
		}
	}

	names := make([]string, 0, len(accs))
	for name := range accs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := accs[name]
		att := Attribution{
			Name: name, Blocking: a.blocking,
			Wire: a.wire, Hidden: a.hidden, Exposed: a.exposed,
		}
		for under, sec := range a.under {
			att.Under = append(att.Under, UnderShare{Name: under, Seconds: sec})
		}
		sort.Slice(att.Under, func(i, j int) bool {
			if att.Under[i].Seconds != att.Under[j].Seconds {
				return att.Under[i].Seconds > att.Under[j].Seconds
			}
			return att.Under[i].Name < att.Under[j].Name
		})
		report.Collectives = append(report.Collectives, att)
		report.TotalWire += a.wire
		report.TotalHidden += a.hidden
	}
	return report
}

func oracleNewRunTrace(id, scenario string, spans []Span) *RunTrace {
	rep := oracleAttribute(spans)
	byName := make(map[string]*Attribution, len(rep.Collectives))
	for i := range rep.Collectives {
		byName[rep.Collectives[i].Name] = &rep.Collectives[i]
	}

	sorted := append([]Span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Name < b.Name
	})

	t := &RunTrace{
		Version:           RunTraceVersion,
		ID:                id,
		Scenario:          scenario,
		Status:            StatusOK,
		OverlapEfficiency: rep.OverlapEfficiency(),
	}
	if len(rep.Collectives) > 0 || rep.StallSeconds > 0 {
		t.Attribution = &rep
	}
	for _, s := range sorted {
		rs := RunSpan{
			Device:  s.Device,
			Track:   s.Track,
			Cat:     s.Cat,
			Name:    s.Name,
			StartMS: s.Start * 1e3,
			DurMS:   s.Dur * 1e3,
		}
		if isWireSpan(s) {
			if a, ok := byName[s.Name]; ok {
				rs.Verdict = verdictOf(*a)
				rs.HiddenFraction = a.HiddenFraction()
				for i, u := range a.Under {
					if i == 3 {
						break
					}
					rs.Under = append(rs.Under, u.Name)
				}
			}
		}
		t.Spans = append(t.Spans, rs)
	}
	return t
}

// randomStream draws a span stream that exercises what the analyzer's
// order of summation depends on: several devices with gaps (and the odd
// negative one, which the analyzer ignores), compute spans that overlap
// one another, spans that start at the same instant, asynchronous
// transfers mixed with blocking collectives and stalls under a handful
// of shared names, zero-length spans — sorted the way an executor
// delivers it, or shuffled the way the simulator and a decoded file may.
func randomStream(rng *rand.Rand) []Span {
	n := rng.Intn(500)
	devices := []int{0, 1, 2, 3, 5, 9}
	if rng.Intn(4) == 0 {
		devices = append(devices, -1)
	}
	tick := func() float64 { return float64(rng.Intn(40)) * 0.125e-3 }
	spans := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		s := Span{
			Device: devices[rng.Intn(len(devices))],
			Start:  tick(),
			Dur:    tick(),
		}
		switch k := rng.Intn(10); {
		case k < 4:
			s.Track, s.Cat, s.Name = TrackCompute, CatCompute, fmt.Sprintf("einsum.%d", rng.Intn(6))
		case k < 7:
			s.Track, s.Cat, s.Name = TrackTransfer, CatTransfer, fmt.Sprintf("cp-start.%d", rng.Intn(4))
		case k < 8:
			s.Track, s.Cat, s.Name = TrackCompute, CatCollective, fmt.Sprintf("all-gather.%d", rng.Intn(2))
		case k < 9:
			s.Track, s.Cat, s.Name = TrackCompute, CatStall, fmt.Sprintf("cp-done.%d", rng.Intn(4))
		default:
			s.Track, s.Cat, s.Name = TrackTransfer, "serialize", fmt.Sprintf("cp-start.%d", rng.Intn(4))
		}
		spans = append(spans, s)
	}
	switch rng.Intn(3) {
	case 0: // the order the runtime assembles
		sort.SliceStable(spans, func(i, j int) bool { return SpanLess(spans[i], spans[j]) })
	case 1: // grouped by device only, stream order within
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Device < spans[j].Device })
	}
	return spans
}

// TestAttributeAndRunTraceMatchOracle compares the analyzer and the
// artifact builder with their previous bodies over randomized streams:
// the reports must be equal with == on every float (DeepEqual compares
// floats that way), the artifacts' JSON byte-identical, and the input
// stream left as it was.
func TestAttributeAndRunTraceMatchOracle(t *testing.T) {
	streams := [][]Span{nil, {}, traceSpans()}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 200; i++ {
		streams = append(streams, randomStream(rng))
	}
	for i, spans := range streams {
		before := append([]Span(nil), spans...)

		got, want := Attribute(spans), oracleAttribute(spans)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %d (%d spans): Attribute diverges from the oracle\n got %+v\nwant %+v", i, len(spans), got, want)
		}

		gotTrace, wantTrace := NewRunTrace("r-oracle", "run", spans), oracleNewRunTrace("r-oracle", "run", spans)
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("stream %d (%d spans): NewRunTrace diverges from the oracle", i, len(spans))
		}
		gotJSON, err := gotTrace.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := wantTrace.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("stream %d (%d spans): RunTrace JSON diverges from the oracle", i, len(spans))
		}

		if !slices.Equal(spans, before) {
			t.Fatalf("stream %d: the analyzer reordered its input", i)
		}
	}
}

// TestRunTraceSharesNothingMutable pins what sharing one Under list per
// collective must not change: a wire span of an unhidden collective
// carries no list at all, and every span of a hidden one reads the same
// names.
func TestRunTraceSharesNothingMutable(t *testing.T) {
	trace := NewRunTrace("r-under", "run", traceSpans())
	under := map[string][]string{}
	for _, s := range trace.Spans {
		if s.Verdict == "" {
			if s.Under != nil {
				t.Fatalf("span %s has no verdict but an Under list %v", s.Name, s.Under)
			}
			continue
		}
		if prev, ok := under[s.Name]; ok && !reflect.DeepEqual(prev, s.Under) {
			t.Fatalf("spans of %s disagree on Under: %v vs %v", s.Name, prev, s.Under)
		}
		under[s.Name] = s.Under
	}
}

// TestSortedStreamIsNotCopied pins the fast path: a stream already in
// SpanLess order — every runtime-produced one — is assembled without
// the defensive copy and sort, so the artifact costs its Spans and the
// report, nothing proportional to the stream besides.
func TestSortedStreamIsNotCopied(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var spans []Span
	for len(spans) < 80 {
		spans = randomStream(rng)
	}
	sorted := append([]Span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return SpanLess(sorted[i], sorted[j]) })
	shuffled := append([]Span(nil), sorted...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	fast := testing.AllocsPerRun(20, func() { NewRunTrace("r", "run", sorted) })
	slow := testing.AllocsPerRun(20, func() { NewRunTrace("r", "run", shuffled) })
	if fast >= slow {
		t.Fatalf("a sorted stream costs %.0f allocations, a shuffled one %.0f: the sorted path still copies", fast, slow)
	}
}
