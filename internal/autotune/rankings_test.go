package autotune

import (
	"reflect"
	"testing"

	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
)

// rankOf is stage 1's outcome on c: the ranked candidates, before stage
// 2 writes to them, and the search that ranked them.
func rankOf(c *hlo.Computation, numDevices int) ([]Candidate, *search) {
	cands := enumerated(c, numDevices)()
	s := newSearch(c, numDevices, machine.TPUv4())
	s.stage1(cands)
	return rank(cands), s
}

// warmLayers are the layer programs a daemon's warm mix serves: the
// eleven Table 1/2 models at 4 devices, dim 8. The mix's two training
// steps are corpus programs already (train.FromModel keeps only the
// dimensions, not the model).
func warmLayers(t *testing.T) []corpus.Program {
	var out []corpus.Program
	for _, name := range []string{
		"GPT_1T", "Meena_500B", "MLPerf_200B", "T5_300B", "GLaM_1T", "BigSSL_10B",
		"GPT_32B", "GPT_64B", "GPT_128B", "GPT_256B", "GPT_512B",
	} {
		cfg, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mini, err := models.Miniature(cfg, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		c, err := models.BuildLayerStep(mini)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, corpus.Program{Name: "warm/" + name, Devices: 4, Comp: c})
	}
	return out
}

// TestRankingIgnoresTheName is the premise Rankings rests on: stage 1
// never reads the computation's name. On every corpus program and every
// warm-mix layer, a renamed clone ranks to the bit as the program does —
// names, order, duplicates, predictions, errors — and regrow, handed that
// ranking, builds for the renamed clone exactly the programs a full
// stage 1 on it would hand stage 2. A stage whose output or error
// message came to read the name fails here.
func TestRankingIgnoresTheName(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.TPUv4()
	for _, p := range append(progs, warmLayers(t)...) {
		if (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		renamed := p.Comp.Clone()
		renamed.Name = "renamed." + p.Comp.Name
		if renamed.UnnamedDigest() != p.Comp.UnnamedDigest() || renamed.TextDigest() == p.Comp.TextDigest() {
			t.Fatalf("%s: the unnamed digest reads the name, or the text digest does not", p.Name)
		}
		want, _ := rankOf(p.Comp, p.Devices)
		got, full := rankOf(renamed, p.Devices)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a renamed clone ranks differently", p.Name)
		}

		toRun := stage2Set(want, 3, spec)
		s := newSearch(renamed, p.Devices, spec)
		if err := s.regrow(want, toRun); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, i := range toRun {
			cand := &want[i]
			prog, err := s.materialise(cand)
			if err != nil {
				t.Fatalf("%s: materialising %s from the reused ranking: %v", p.Name, cand.Name, err)
			}
			ref, err := full.materialise(cand)
			if err != nil {
				t.Fatal(err)
			}
			if prog.Name != renamed.Name || prog.Format() != ref.Format() {
				t.Fatalf("%s: %s regrown from the reused ranking is not what stage 1 builds", p.Name, cand.Name)
			}
		}
	}
}
