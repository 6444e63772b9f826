package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
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
		slices.SortFunc(out[i].Under, func(a, b UnderShare) int { return cmp.Compare(b.Seconds, a.Seconds) })
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
	at := attributors.Get().(*attributor)
	defer at.put()
	report := AttributionReport{StallSeconds: at.sweep(spans, true)}
	if len(at.colls) == 0 {
		return report
	}

	// The report: its collectives by name, and one list of UnderShares
	// cut into each collective's, largest share first.
	report.Collectives = make([]Attribution, len(at.colls))
	shares := make([]UnderShare, len(at.unders))
	for i, a := range at.colls {
		report.Collectives[i] = Attribution{
			Name: a.name, Blocking: a.blocking,
			Wire: a.wire, Hidden: a.hidden, Exposed: a.exposed,
		}
	}
	for _, u := range at.unders {
		at.colls[u.coll].nunder++
	}
	next := 0
	for i := range at.colls {
		a := &at.colls[i]
		if a.nunder > 0 {
			report.Collectives[i].Under = shares[next : next : next+a.nunder]
			next += a.nunder
		}
	}
	for _, u := range at.unders {
		att := &report.Collectives[u.coll]
		att.Under = append(att.Under, UnderShare{Name: u.name, Seconds: u.sec})
	}
	slices.SortFunc(report.Collectives, func(a, b Attribution) int { return strings.Compare(a.Name, b.Name) })
	for i := range report.Collectives {
		att := &report.Collectives[i]
		slices.SortFunc(att.Under, func(a, b UnderShare) int {
			if c := cmp.Compare(b.Seconds, a.Seconds); c != 0 {
				return c
			}
			return strings.Compare(a.Name, b.Name)
		})
		report.TotalWire += att.Wire
		report.TotalHidden += att.Hidden
	}
	return report
}

// OverlapEfficiency is Attribute(spans).OverlapEfficiency(), bit for
// bit, without the report: the same sweep, recording no under-lists,
// summing the collectives in name order as the report's totals do. A
// stream grouped by device — every executor's — costs no allocation
// once the pooled scratch has grown to it.
func OverlapEfficiency(spans []Span) float64 {
	at := attributors.Get().(*attributor)
	defer at.put()
	at.sweep(spans, false)
	slices.SortFunc(at.colls, func(a, b collectiveAcc) int { return strings.Compare(a.name, b.name) })
	var wire, hidden float64
	for _, a := range at.colls {
		wire += a.wire
		hidden += a.hidden
	}
	if wire == 0 {
		return 0
	}
	return hidden / wire
}

// sweep accumulates spans into at, one collective at a time, and
// returns the stream's stall seconds; with unders it also records what
// each collective's wire hid under. It visits devices in ascending
// order and each device's spans in stream order — every sum depends on
// it. A stream already grouped that way (every executor's is) is walked
// in place; any other is copied and grouped once.
func (at *attributor) sweep(spans []Span, unders bool) (stall float64) {
	byDevice := func(a, b Span) int { return cmp.Compare(a.Device, b.Device) }
	if !slices.IsSortedFunc(spans, byDevice) {
		spans = slices.Clone(spans)
		slices.SortStableFunc(spans, byDevice)
	}
	for lo, hi := 0, 0; lo < len(spans); lo = hi {
		dev := spans[lo].Device
		for hi = lo; hi < len(spans) && spans[hi].Device == dev; hi++ {
		}
		if dev < 0 {
			continue // no executor records one; a hostile stream's are ignored
		}
		devSpans := spans[lo:hi]
		compute := at.compute[:0]
		for _, s := range devSpans {
			if s.Track == TrackCompute && s.Cat == CatCompute {
				compute = append(compute, s)
			}
		}
		slices.SortFunc(compute, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
		at.compute = compute

		for _, s := range devSpans {
			switch {
			case s.Track == TrackTransfer && s.Cat == CatTransfer:
				c := at.collective(s.Name)
				at.colls[c].wire += s.Dur
				hidden := 0.0
				for _, cs := range compute {
					if cs.Start >= s.Start+s.Dur {
						break
					}
					from, to := maxf(cs.Start, s.Start), minf(cs.Start+cs.Dur, s.Start+s.Dur)
					if to > from {
						hidden += to - from
						if unders {
							at.under(c, cs.Name, to-from)
						}
					}
				}
				if hidden > s.Dur {
					hidden = s.Dur // overlapping compute spans cannot hide more than the wire
				}
				a := &at.colls[c]
				a.hidden += hidden
				a.exposed += s.Dur - hidden
			case s.Track == TrackCompute && s.Cat == CatCollective:
				a := &at.colls[at.collective(s.Name)]
				a.blocking = true
				a.wire += s.Dur
				a.exposed += s.Dur
			case s.Track == TrackCompute && s.Cat == CatStall:
				stall += s.Dur
			}
		}
	}
	return stall
}

// attributor is the sweep's scratch, reused across calls of Attribute
// and OverlapEfficiency: one accumulator per collective, found by name,
// and one per (collective, compute instruction) pair the collective's
// wire hid under.
type attributor struct {
	colls   []collectiveAcc
	byName  map[string]int
	unders  []underAcc
	byUnder map[underKey]int
	compute []Span // one device's compute spans
}

type collectiveAcc struct {
	name                  string
	blocking              bool
	wire, hidden, exposed float64
	nunder                int
}

type underKey struct {
	coll int
	name string
}

type underAcc struct {
	coll int
	name string
	sec  float64
}

var attributors = sync.Pool{New: func() any {
	return &attributor{byName: map[string]int{}, byUnder: map[underKey]int{}}
}}

// collective returns the position of name's accumulator.
func (at *attributor) collective(name string) int {
	c, ok := at.byName[name]
	if !ok {
		c = len(at.colls)
		at.byName[name] = c
		at.colls = append(at.colls, collectiveAcc{name: name})
	}
	return c
}

// under adds sec to what collective c hid under compute instruction
// name.
func (at *attributor) under(c int, name string, sec float64) {
	k := underKey{c, name}
	u, ok := at.byUnder[k]
	if !ok {
		u = len(at.unders)
		at.byUnder[k] = u
		at.unders = append(at.unders, underAcc{coll: c, name: name})
	}
	at.unders[u].sec += sec
}

// put empties the scratch and returns it to the pool; the names it
// held are the caller's.
func (at *attributor) put() {
	clear(at.colls)
	clear(at.unders)
	clear(at.compute)
	clear(at.byName)
	clear(at.byUnder)
	at.colls, at.unders, at.compute = at.colls[:0], at.unders[:0], at.compute[:0]
	attributors.Put(at)
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
