package sim

import (
	"strings"
	"testing"

	"overlap/internal/machine"
	"overlap/internal/obs"
)

// TestTimelineOfSimulatedTrace pins the ASCII timeline of a simulated
// span set byte for byte: the string below is what the pre-RunTrace
// renderer drew for the same spans.
func TestTimelineOfSimulatedTrace(t *testing.T) {
	_, spans, err := SimulateTrace(traceSite(), 2, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	out := obs.NewRunTrace("t", "run", spans).Timeline(80)
	want := strings.Join([]string{
		"time: 0 .. 0.072 ms  (one column = 0.9 us)",
		"legend: # compute   C collective/wait   . stall   = transfer in flight",
		"dev  0 comp |############........................................CCCCCCCCCCCCCCCCCCCCCCCCCCCC|",
		"       xfer |=====================================================                           |",
		"dev  1 comp |############........................................CCCCCCCCCCCCCCCCCCCCCCCCCCCC|",
		"       xfer |=====================================================                           |",
		"",
	}, "\n")
	if out != want {
		t.Fatalf("timeline moved:\n got:\n%s\nwant:\n%s", out, want)
	}
	// Every row must be exactly the requested width between the bars.
	for _, line := range strings.Split(out, "\n") {
		if i := strings.IndexByte(line, '|'); i >= 0 {
			j := strings.LastIndexByte(line, '|')
			if j-i-1 != 80 {
				t.Fatalf("row width %d, want 80: %q", j-i-1, line)
			}
		}
	}
}
