package experiments

import (
	"encoding/json"
	"testing"

	"overlap/internal/sim"
)

// TestStructuredJSONGolden pins the `overlap experiments -json` line
// schema byte for byte: renaming or reordering a field breaks downstream
// tracking tools, so it must fail here first.
func TestStructuredJSONGolden(t *testing.T) {
	s := Structured{
		Experiment: "fig12",
		Speedups:   []float64{1.25, 1.5},
		Models:     []string{"GPT_32B", "GLaM_1T"},
		Text:       "report",
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"experiment":"fig12","speedups":[1.25,1.5],"models":["GPT_32B","GLaM_1T"],"text":"report"}`
	if string(data) != want {
		t.Fatalf("structured JSON schema drifted:\n got %s\nwant %s", data, want)
	}

	// Optional fields must stay omitted for text-only experiments.
	data, err = json.Marshal(Structured{Experiment: "table1", Text: "t"})
	if err != nil {
		t.Fatal(err)
	}
	want = `{"experiment":"table1","text":"t"}`
	if string(data) != want {
		t.Fatalf("structured JSON omitempty drifted:\n got %s\nwant %s", data, want)
	}
}

// TestRatioAccessorsGuardZero checks the ratio-style accessors return 0
// instead of NaN/Inf on degenerate zero-time runs.
func TestRatioAccessorsGuardZero(t *testing.T) {
	var c Comparison
	if got := c.Speedup(); got != 0 {
		t.Fatalf("Speedup on zero step time = %v, want 0", got)
	}
	if got := c.CommReduction(); got != 0 {
		t.Fatalf("CommReduction on zero exposure = %v, want 0", got)
	}
	c.Baseline.Breakdown = sim.Breakdown{StepTime: 2, Exposed: 3}
	c.Overlapped.Breakdown = sim.Breakdown{StepTime: 1, Exposed: 1.5}
	if got := c.Speedup(); got != 2 {
		t.Fatalf("Speedup = %v, want 2", got)
	}
	if got := c.CommReduction(); got != 2 {
		t.Fatalf("CommReduction = %v, want 2", got)
	}
}
