package autotune

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"overlap/internal/corpus"
	"overlap/internal/machine"
)

var recordDecisions = flag.Bool("record-decisions", false, "rewrite testdata/decisions.golden.json from this commit's stage 1")

// TestDecisionsMatchRecorded pins what stage 1 decides on every corpus
// program against digests recorded at the commit before the search
// tree, the schedulers and hlo's bookkeeping were rebuilt (PR 21): the
// ranked candidate list — names, order, Predicted to the bit,
// DuplicateOf, Err — and the program text every unique candidate
// materialises to, which is the text of any plan stage 2 can pick.
// TestSearchTreeIsFlatLoop compares the tree with core.Apply at the
// same commit; this one is what notices core.Apply itself drifting.
// -record-decisions is for a commit that changes decisions on purpose.
func TestDecisionsMatchRecorded(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "decisions.golden.json")
	want := map[string]string{}
	if !*recordDecisions {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	spec := machine.TPUv4()
	got := map[string]string{}
	for _, p := range progs {
		if !*recordDecisions && (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		cands := enumerated(p.Comp, p.Devices)()
		s := newSearch(p.Comp, p.Devices, spec)
		s.stage1(cands)
		h := sha256.New()
		for _, cand := range rank(cands) {
			fmt.Fprintf(h, "%s|%s|%s|%+v\n", cand.Name, cand.DuplicateOf, cand.Err, cand.Predicted)
			if !cand.unique {
				continue
			}
			prog, err := s.materialise(&cand)
			if err != nil {
				t.Fatalf("%s: materialising %s: %v", p.Name, cand.Name, err)
			}
			text := prog.TextDigest()
			h.Write(text[:])
		}
		got[p.Name] = hex.EncodeToString(h.Sum(nil))
		if w, ok := want[p.Name]; !*recordDecisions && (!ok || w != got[p.Name]) {
			t.Errorf("%s: stage 1 decides %s, recorded %q", p.Name, got[p.Name], w)
		}
	}
	if *recordDecisions {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
