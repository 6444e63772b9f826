package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"overlap/internal/machine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/experiments.golden.jsonl")

// results holds each experiment regenerated once per test binary, so the
// golden and the shape tests read the same run. Tests here do not run
// in parallel.
var results = map[string]Result{}

// regenerated is experiment id on the default TPU-v4-like machine.
func regenerated(t *testing.T, id string) Result {
	t.Helper()
	if r, ok := results[id]; ok {
		return r
	}
	r, err := Regenerate(id, machine.TPUv4())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	results[id] = r
	return r
}

// TestExperimentsGolden pins every experiment's output byte for byte:
// one line per IDs() entry, exactly as `overlap experiments -json`
// prints it on the default TPU-v4-like machine. The text column is the
// non-JSON output, so this pins both forms. -update is for a commit
// that changes the evaluation on purpose.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model sweep")
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for _, id := range IDs() {
		if err := enc.Encode(regenerated(t, id).Structured); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "experiments.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d drifted:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden has %d lines, run printed %d", len(wl), len(gl))
	}
}
