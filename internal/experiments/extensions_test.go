package experiments

import (
	"strings"
	"testing"
)

func TestMemoryExtensionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	text := regenerated(t, "memory").Text
	if !strings.Contains(text, "GPT_1T") || !strings.Contains(text, "+") {
		t.Fatalf("memory table malformed:\n%s", text)
	}
	// Overlapping must grow memory (receive buffers, double buffering),
	// but not explode: growth lines must all parse below +150%.
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "%") || strings.Contains(line, "growth") {
			continue
		}
		fields := strings.Fields(line)
		pct := fields[len(fields)-1]
		if strings.HasPrefix(pct, "+1") && len(pct) >= 7 { // +1xx.x%
			t.Fatalf("implausible memory growth %s in %q", pct, line)
		}
	}
}

func TestRolledExtensionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	text := regenerated(t, "rolled").Text
	// The expanded form must beat the rolled loop on every row.
	rows := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "x") || !strings.Contains(line, "ms") {
			continue
		}
		rows++
		fields := strings.Fields(line)
		ratio := fields[len(fields)-1]
		if strings.HasPrefix(ratio, "0.") {
			t.Fatalf("expanded emission slower than rolled: %q", line)
		}
	}
	if rows != 3 {
		t.Fatalf("expected 3 rolled rows, got %d:\n%s", rows, text)
	}
}

func TestInferenceSweepCrossover(t *testing.T) {
	text := regenerated(t, "inference-sweep").Text
	// The sweep must show the crossover: small batches lose (the cost
	// model would reject them), mid-size batches win.
	if !strings.Contains(text, "0.") {
		t.Fatalf("sweep shows no losing configuration:\n%s", text)
	}
	if !strings.Contains(text, "1.4") && !strings.Contains(text, "1.3") {
		t.Fatalf("sweep shows no clear winning configuration:\n%s", text)
	}
}

func TestPipelineComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model run")
	}
	text := regenerated(t, "pipeline").Text
	if !strings.Contains(text, "speedup 1.") {
		t.Fatalf("pipeline composition lost the intra-layer speedup:\n%s", text)
	}
	if !strings.Contains(text, "bubble") {
		t.Fatalf("pipeline output missing bubble accounting:\n%s", text)
	}
}

func TestGPUGeneralization(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	text := regenerated(t, "gpu").Text
	rows := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "x") || !strings.Contains(line, "%") {
			continue
		}
		rows++
		// Every row must still show a speedup ("the idea can also be
		// applied to other hardware ML systems"), just a smaller one
		// than on the TPU-like machine.
		fields := strings.Fields(line)
		ratio := fields[len(fields)-1]
		if !strings.HasPrefix(ratio, "1.") {
			t.Fatalf("GPU-model row lost the speedup: %q", line)
		}
	}
	if rows != 4 {
		t.Fatalf("expected 4 GPU rows, got %d:\n%s", rows, text)
	}
}
