package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Timeline draws the trace's spans as a fixed-width ASCII gantt: one
// compute row and one transfer row per device that recorded a span,
// with time bucketed into width columns. Legend:
//
//	#  compute (einsums, fusions, element-wise)
//	C  blocking collective / exposed collective wait
//	.  stall waiting for an asynchronous transfer
//	=  asynchronous transfer in flight (transfer-engine track)
//
// Overlap is visible directly: '=' under '#' is hidden communication;
// '=' under '.' or 'C' is exposed.
func (t *RunTrace) Timeline(width int) string {
	if len(t.Spans) == 0 {
		return "(no events)\n"
	}
	if width < 10 {
		width = 10
	}
	// Columns are computed in microseconds, the unit the header prints.
	end := 0.0
	type track struct{ compute, transfer []byte }
	rows := map[int]*track{}
	var devices []int
	for _, s := range t.Spans {
		if f := s.StartMS*1e3 + s.DurMS*1e3; f > end {
			end = f
		}
		if rows[s.Device] == nil {
			rows[s.Device] = &track{
				compute:  []byte(strings.Repeat(" ", width)),
				transfer: []byte(strings.Repeat(" ", width)),
			}
			devices = append(devices, s.Device)
		}
	}
	if end == 0 {
		return "(empty timeline)\n"
	}
	sort.Ints(devices)
	bucket := end / float64(width)

	glyph := func(cat string) byte {
		switch cat {
		case CatCompute:
			return '#'
		case CatCollective:
			return 'C'
		case CatStall:
			return '.'
		case CatTransfer:
			return '='
		}
		return '?'
	}
	// Paint longer spans first so short stalls stay visible on top.
	sorted := append([]RunSpan(nil), t.Spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].DurMS > sorted[j].DurMS })
	for _, s := range sorted {
		row := rows[s.Device].compute
		if s.Track == TrackTransfer {
			row = rows[s.Device].transfer
		}
		lo := int(s.StartMS * 1e3 / bucket)
		hi := int((s.StartMS*1e3 + s.DurMS*1e3) / bucket)
		if hi >= width {
			hi = width - 1
		}
		for x := max(lo, 0); x <= hi; x++ {
			row[x] = glyph(s.Cat)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "time: 0 .. %.3f ms  (one column = %.1f us)\n", end/1e3, bucket)
	b.WriteString("legend: # compute   C collective/wait   . stall   = transfer in flight\n")
	for _, d := range devices {
		fmt.Fprintf(&b, "dev %2d comp |%s|\n", d, rows[d].compute)
		fmt.Fprintf(&b, "       xfer |%s|\n", rows[d].transfer)
	}
	return b.String()
}
