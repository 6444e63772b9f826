package experiments

import (
	"strings"
	"testing"

	"overlap/internal/machine"
	"overlap/internal/tensor"
)

// TestWallclockShape runs the measured-kernel experiment at miniature
// sizes: every variant must produce a positive time, the normalized
// series must line up with the variants, and the process-global
// pack-cache toggle must come back as it went in.
func TestWallclockShape(t *testing.T) {
	p := wallclockParams{devices: 2, m: 2, k: 256, n: 16, reps: 1, splitK: 4}
	text, normalized, err := wallclock(machine.TPUv4(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(normalized) != 4 {
		t.Fatalf("got %d normalized times, want 4", len(normalized))
	}
	for i, v := range normalized {
		if v <= 0 {
			t.Fatalf("variant %d has non-positive normalized time %g", i, v)
		}
	}
	for _, label := range []string{"rolled loop", "expanded", "pack cache off", "split-K 4"} {
		if !strings.Contains(text, label) {
			t.Fatalf("report is missing the %q variant:\n%s", label, text)
		}
	}
	if !tensor.PackCacheEnabled() {
		t.Fatal("wallclock leaked a disabled pack cache")
	}
}
