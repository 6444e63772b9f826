package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Span is one timed interval from an execution's span stream, simulated
// or measured: a compute-track event (a local instruction, a blocking
// collective wait, or an exposed stall) or a transfer-engine event (one
// asynchronous transfer occupying its link). It is the one in-memory
// span every executor and the simulator record. Times are seconds from
// the start of the step; transfer spans sit on the sending device.
type Span struct {
	Device int
	Track  int
	Cat    string
	Name   string
	Start  float64
	Dur    float64
}

// Track values: the two per-device tracks, the compute pipe and the
// transfer engine. The simulator and the runtime record on the same
// tracks so modeled and measured timelines line up.
const (
	TrackCompute  = 0
	TrackTransfer = 1
)

// TraceMaxDevices bounds the recorded devices: spans for devices
// >= TraceMaxDevices are deliberately dropped, not merged. SPMD
// programs are symmetric, so a handful of adjacent devices shows the
// whole picture without gigabyte traces.
const TraceMaxDevices = 8

// Span categories.
const (
	CatCompute    = "compute"
	CatCollective = "collective"
	CatStall      = "stall"
	CatTransfer   = "transfer"
)

// Attribution reports where one collective instruction's wire time went:
// how much of it ran under dependent computation (hidden) versus outside
// any compute span (exposed), and which compute instructions — the
// partial einsums of the decomposition — did the hiding.
type Attribution struct {
	// Name is the collective instruction (the start instruction for an
	// asynchronous pair).
	Name string `json:"name"`
	// Blocking marks a synchronous collective, whose recorded span is a
	// blocked wait and therefore entirely exposed.
	Blocking bool `json:"blocking"`
	// Wire is the instruction's total wire seconds summed over devices.
	Wire float64 `json:"wire"`
	// Hidden and Exposed partition Wire: time overlapped by the issuing
	// device's compute spans versus time it was not.
	Hidden  float64 `json:"hidden"`
	Exposed float64 `json:"exposed"`
	// Under lists the compute instructions the wire time hid beneath,
	// largest share first.
	Under []UnderShare `json:"under,omitempty"`
}

// UnderShare is one compute instruction's share of a collective's
// hidden time.
type UnderShare struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// HiddenFraction returns Hidden/Wire, or 0 for zero wire time.
func (a Attribution) HiddenFraction() float64 {
	if a.Wire == 0 {
		return 0
	}
	return a.Hidden / a.Wire
}

// ExposedFraction returns Exposed/Wire, or 0 for zero wire time.
func (a Attribution) ExposedFraction() float64 {
	if a.Wire == 0 {
		return 0
	}
	return a.Exposed / a.Wire
}

// AttributionReport is the per-collective overlap breakdown of one
// execution — the per-op analogue of the paper's Figure 9.
type AttributionReport struct {
	// Collectives lists every collective instruction seen in the span
	// stream, sorted by name.
	Collectives []Attribution `json:"collectives"`
	// TotalWire and TotalHidden aggregate over all collectives.
	TotalWire   float64 `json:"total_wire"`
	TotalHidden float64 `json:"total_hidden"`
	// StallSeconds totals the receiver-side stall spans (waits on
	// asynchronous dones), a device-level exposure complement to the
	// per-collective sender-side numbers.
	StallSeconds float64 `json:"stall_seconds"`
}

// OverlapEfficiency returns the aggregate hidden fraction
// TotalHidden/TotalWire, or 0 for a program with no wire time.
func (r AttributionReport) OverlapEfficiency() float64 {
	if r.TotalWire == 0 {
		return 0
	}
	return r.TotalHidden / r.TotalWire
}

// GroupBy rolls the per-instruction collectives up under key(name):
// rows mapping to the same key merge into one Attribution whose wire,
// hidden and exposed seconds are summed and whose Under shares are
// combined per compute instruction (largest first). Groups keep the
// order in which their keys first appear. The gradient-bucketing pass
// names every emitted permute "gbktK.…", so keying on the first
// name segment yields a per-bucket attribution — one row per gradient
// bucket instead of one per ring step.
func (r AttributionReport) GroupBy(key func(name string) string) []Attribution {
	index := map[string]int{}
	var out []Attribution
	for _, a := range r.Collectives {
		k := key(a.Name)
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, Attribution{Name: k, Blocking: a.Blocking})
		}
		g := &out[i]
		g.Wire += a.Wire
		g.Hidden += a.Hidden
		g.Exposed += a.Exposed
		g.Blocking = g.Blocking && a.Blocking
		for _, u := range a.Under {
			found := false
			for j := range g.Under {
				if g.Under[j].Name == u.Name {
					g.Under[j].Seconds += u.Seconds
					found = true
					break
				}
			}
			if !found {
				g.Under = append(g.Under, u)
			}
		}
	}
	for i := range out {
		sort.Slice(out[i].Under, func(a, b int) bool {
			return out[i].Under[a].Seconds > out[i].Under[b].Seconds
		})
	}
	return out
}

// Attribute analyzes a span stream and reports, per collective
// instruction, how much of its wire time was hidden under which compute
// spans versus exposed.
//
// Asynchronous transfers are attributed on the sending device: the
// portion of each transfer span that overlaps the sender's own compute
// spans is hidden (the device kept computing while its transfer rode
// the wire), the rest is exposed. Blocking collectives appear in the
// stream as compute-track waits and are entirely exposed by
// construction. Devices outside the trace window simply contribute
// nothing; SPMD symmetry makes the recorded devices representative.
func Attribute(spans []Span) AttributionReport {
	// The analysis visits devices in ascending order and each device's
	// spans in stream order — every sum below depends on it. A stream
	// already grouped that way (every executor's is) is walked in place;
	// any other is copied and grouped once.
	byDevice := func(i, j int) bool { return spans[i].Device < spans[j].Device }
	if !sort.SliceIsSorted(spans, byDevice) {
		spans = append([]Span(nil), spans...)
		sort.SliceStable(spans, byDevice)
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
	var compute []Span // one device's compute spans; reused across devices
	for lo, hi := 0, 0; lo < len(spans); lo = hi {
		dev := spans[lo].Device
		for hi = lo; hi < len(spans) && spans[hi].Device == dev; hi++ {
		}
		if dev < 0 {
			continue // no executor records one; a hostile stream's are ignored
		}
		devSpans := spans[lo:hi]
		n := 0
		for _, s := range devSpans {
			if s.Track == TrackCompute && s.Cat == CatCompute {
				n++
			}
		}
		if cap(compute) < n {
			compute = make([]Span, 0, n)
		}
		compute = compute[:0]
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
					from, to := maxf(c.Start, s.Start), minf(c.Start+c.Dur, s.Start+s.Dur)
					if to > from {
						hidden += to - from
						a.under[c.Name] += to - from
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
	if len(names) > 0 {
		report.Collectives = make([]Attribution, 0, len(names))
	}
	for _, name := range names {
		a := accs[name]
		att := Attribution{
			Name: name, Blocking: a.blocking,
			Wire: a.wire, Hidden: a.hidden, Exposed: a.exposed,
		}
		if len(a.under) > 0 {
			att.Under = make([]UnderShare, 0, len(a.under))
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

// Render draws the report as an aligned table: one row per collective
// with its wire/hidden/exposed split and the top compute spans that hid
// it, plus the aggregate overlap-efficiency line.
func (r AttributionReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %10s %10s %10s %7s  %s\n",
		"collective", "wire-ms", "hidden-ms", "exposed-ms", "hidden%", "hidden under")
	for _, a := range r.Collectives {
		under := "-"
		if len(a.Under) > 0 {
			parts := make([]string, 0, 3)
			for i, u := range a.Under {
				if i == 3 {
					parts = append(parts, "…")
					break
				}
				parts = append(parts, u.Name)
			}
			under = strings.Join(parts, ", ")
		}
		if a.Blocking {
			under = "(blocking)"
		}
		fmt.Fprintf(&b, "%-28s %10.3f %10.3f %10.3f %6.1f%%  %s\n",
			a.Name, 1e3*a.Wire, 1e3*a.Hidden, 1e3*a.Exposed, 100*a.HiddenFraction(), under)
	}
	fmt.Fprintf(&b, "overlap efficiency %.1f%% (%0.3f of %0.3f wire-ms hidden); stalls %.3f ms\n",
		100*r.OverlapEfficiency(), 1e3*r.TotalHidden, 1e3*r.TotalWire, 1e3*r.StallSeconds)
	return b.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
