package autotune

import (
	"reflect"
	"strings"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/obs"
	"overlap/internal/sim"
	"overlap/internal/topology"
)

// flatStage1 is stage 1 as it ran before the search tree: one Clone →
// Apply → Format → Simulate per candidate, deduplicated on the whole
// program text. It survives here only, as the oracle the tree is
// compared against. It returns each applied candidate's final text.
func flatStage1(cands []*Candidate, c *hlo.Computation, numDevices int, spec machine.Spec) map[string]string {
	texts := map[string]string{}
	seen := map[string]*Candidate{}
	for _, cand := range cands {
		clone := c.Clone()
		if !cand.Baseline {
			if _, err := core.Apply(clone, cand.Opts); err != nil {
				cand.Err = err.Error()
				continue
			}
		}
		text := clone.Format()
		texts[cand.Name] = text
		if first, dup := seen[text]; dup {
			cand.DuplicateOf = first.Name
			cand.Predicted = first.Predicted
			continue
		}
		bd, err := sim.Simulate(clone, numDevices, spec)
		if err != nil {
			cand.Err = err.Error()
			continue
		}
		seen[text] = cand
		cand.unique = true
		cand.Predicted = bd
	}
	return texts
}

// checkTreeIsFlatLoop runs both stage-1 implementations over the same
// candidate list and requires the same Candidates field for field —
// names, order, DuplicateOf, Predicted to the bit, Err, unique — before
// and after ranking, the same stage-2 set, and every unique candidate
// materialising to exactly the text flat Apply printed for it.
func checkTreeIsFlatLoop(t *testing.T, name string, c *hlo.Computation, numDevices int, build func() []*Candidate) (*search, []Candidate) {
	t.Helper()
	spec := machine.TPUv4()
	before := c.Format()

	tree, flat := build(), build()
	s := newSearch(c, numDevices, spec)
	s.stage1(tree)
	texts := flatStage1(flat, c, numDevices, spec)

	if len(tree) != len(flat) {
		t.Fatalf("%s: %d vs %d candidates", name, len(tree), len(flat))
	}
	for i := range tree {
		if !reflect.DeepEqual(*tree[i], *flat[i]) {
			t.Fatalf("%s: candidate %d differs:\n tree %+v\n flat %+v", name, i, *tree[i], *flat[i])
		}
	}
	for _, cand := range tree {
		if !cand.unique {
			continue
		}
		prog, err := s.materialise(cand)
		if err != nil {
			t.Fatalf("%s: materialising %s: %v", name, cand.Name, err)
		}
		if got := prog.Format(); got != texts[cand.Name] {
			t.Fatalf("%s: %s materialises to\n%s\nflat Apply printed\n%s", name, cand.Name, got, texts[cand.Name])
		}
	}
	rankedTree, rankedFlat := rank(tree), rank(flat)
	if !reflect.DeepEqual(rankedTree, rankedFlat) {
		t.Fatalf("%s: ranking differs", name)
	}
	for _, topK := range []int{1, 3} {
		if a, b := stage2Set(rankedTree, topK, spec), stage2Set(rankedFlat, topK, spec); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: stage-2 set %v, flat %v", name, a, b)
		}
	}
	if c.Format() != before {
		t.Fatalf("%s: the search modified its input", name)
	}
	return s, rankedTree
}

func enumerated(c *hlo.Computation, numDevices int) func() []*Candidate {
	return func() []*Candidate { return enumerate(c, numDevices, Options{Spec: machine.TPUv4()}) }
}

// TestSearchTreeIsFlatLoop is the oracle: on the whole corpus the
// memoised tree decides exactly what the per-candidate loop decided.
func TestSearchTreeIsFlatLoop(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		_, ranked := checkTreeIsFlatLoop(t, p.Name, p.Comp, p.Devices, enumerated(p.Comp, p.Devices))

		if strings.HasPrefix(p.Name, "train/ddp/") {
			// The pre stage is a no-op for most candidates here, and the
			// plainest one (nothing to decompose, fuse or schedule) prints
			// the baseline's own text: it must dedup into it.
			dupOfBaseline := 0
			for _, cand := range ranked {
				if cand.DuplicateOf == "baseline" {
					dupOfBaseline++
				}
			}
			if dupOfBaseline == 0 {
				t.Errorf("%s: no candidate deduplicated into the baseline", p.Name)
			}
		}
	}
}

// TestStage1SimulatesEachProgramOnce counts sim.Simulate calls across
// one stage 1 on every corpus program: one per distinct node that a
// unique candidate was ranked on — the first candidate to print each
// program — and none for a node whose every candidate is a duplicate of
// one ranked elsewhere, so building the tree on workers simulates no
// program the serial pass did not. That is also never more than the
// per-candidate loop's one call per unique candidate.
func TestStage1SimulatesEachProgramOnce(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	calls := obs.Default().Counter("overlap_sim_runs_total", "")
	for _, p := range progs {
		if (testing.Short() || corpus.RaceEnabled) && p.Long() {
			continue
		}
		cands := enumerated(p.Comp, p.Devices)()
		s := newSearch(p.Comp, p.Devices, machine.TPUv4())
		before := calls.Value()
		s.stage1(cands)
		got := int(calls.Value() - before)

		ranked, unique := map[*node]bool{}, 0
		for _, n := range s.landed {
			ranked[n] = true
		}
		for _, cand := range cands {
			if cand.unique {
				unique++
			}
			if cand.Err != "" {
				t.Fatalf("%s: %s failed: %s", p.Name, cand.Name, cand.Err)
			}
		}
		if got != len(ranked) {
			t.Errorf("%s: stage 1 called Simulate %d times for %d distinct ranked nodes", p.Name, got, len(ranked))
		}
		if got > unique {
			t.Errorf("%s: stage 1 called Simulate %d times for %d unique candidates", p.Name, got, unique)
		}
	}
}

// agSite is the canonical AllGather-Einsum site on an n-ring; a large k
// makes it skinny, so EnumerateOptions searches split-K factors.
func agSite(n, k int) *hlo.Computation {
	c := hlo.NewComputation("site")
	a := c.Parameter(0, "a", []int{4, k})
	b := c.Parameter(1, "b", []int{k, 32})
	full := c.AllGather(a, 0, topology.NewRing(n).AxisGroups(0))
	c.Einsum("mk,kn->mn", full, b)
	return c
}

// TestSearchTreeCorners covers what the corpus' enumerated space does
// not reach: split-K factors (legal and not), Bidirectional falling
// back on an odd ring, an input that arrives already stamped, and a
// failing stage.
func TestSearchTreeCorners(t *testing.T) {
	t.Run("split-K factors share a node", func(t *testing.T) {
		c := agSite(4, 512)
		s, _ := checkTreeIsFlatLoop(t, "skinny", c, 4, enumerated(c, 4))
		factors := map[int]bool{}
		for _, cand := range enumerated(c, 4)() {
			factors[cand.Opts.KernelSplitK] = true
		}
		if len(factors) < 3 {
			t.Fatalf("skinny site enumerated factors %v", factors)
		}
		// Every factor of a scheduled program is a unique candidate, and
		// all of them were ranked on — and simulated once through — the
		// one node.
		landed := map[*node]int{}
		for _, n := range s.landed {
			landed[n]++
		}
		shared := 0
		for n, uniques := range landed {
			if uniques == len(factors) && n.simulated {
				shared++
			}
		}
		if want := (len(s.landed) - 2) / len(factors); shared != want { // less the baseline and rolled
			t.Fatalf("%d nodes carry all %d factors, want %d", shared, len(factors), want)
		}
	})

	t.Run("illegal factor", func(t *testing.T) {
		c := agSite(4, 512)
		checkTreeIsFlatLoop(t, "illegal", c, 4, func() []*Candidate {
			cands := enumerated(c, 4)()
			for _, cand := range cands[1:] {
				if cand.Opts.KernelSplitK == 4 {
					cand.Opts.KernelSplitK = 1 << 20
					cand.Name = cand.Opts.Fingerprint()
				}
			}
			return cands
		})
	})

	t.Run("bidi on an odd ring", func(t *testing.T) {
		c := agSite(3, 6)
		checkTreeIsFlatLoop(t, "odd ring", c, 3, func() []*Candidate {
			cands := enumerated(c, 3)()
			for _, cand := range append([]*Candidate(nil), cands[1:]...) {
				if cand.Opts.Rolled {
					continue
				}
				bidi := *cand
				bidi.Opts.Bidirectional = true
				bidi.Name = bidi.Opts.Fingerprint()
				cands = append(cands, &bidi)
			}
			return cands
		})
	})

	t.Run("stamped input", func(t *testing.T) {
		for _, stamps := range [][2]int{{2, 2}, {2, 4}, {1, 1}, {0, 2}} {
			c := agSite(4, 512)
			second := c.Einsum("mn,mn->mn", c.Root(), c.Root())
			c.Root().Operands[0].SplitK, second.SplitK = stamps[0], stamps[1]
			if err := c.Verify(); err != nil {
				t.Fatal(err)
			}
			checkTreeIsFlatLoop(t, "stamped", c, 4, enumerated(c, 4))
		}
	})

	t.Run("a failing stage reaches every descendant", func(t *testing.T) {
		c := agSite(4, 6)
		c.Copy(c.Root()).Shape = []int{7, 7} // every per-site Verify inside Decompose now fails
		s, ranked := checkTreeIsFlatLoop(t, "failing", c, 4, enumerated(c, 4))
		for _, cand := range ranked {
			switch {
			case cand.Baseline:
				if cand.Err != "" || !cand.unique {
					t.Fatalf("baseline: %+v", cand)
				}
			case !strings.Contains(cand.Err, "core: decomposing"):
				t.Fatalf("%s: Err %q, want the decompose failure", cand.Name, cand.Err)
			}
		}
		for key, n := range s.memo {
			if n.c != nil || n.simulated || n.inspected {
				t.Fatalf("stage %d built, inspected or simulated a node below a failed stage", key.stage)
			}
		}
	})
}

// TestTreeKeysOnThePrograms counts the nodes stage 1 builds per stage
// for the GPT_32B 4×8 layer — the shape the daemon compiles most — and
// pins what keying each stage on its input program saves. No
// CollectivePermuteDone reaches the fuse stage, so the two
// OverlapFriendlyFusion variants of a FuseAddIntoEinsum candidate share
// one fuse node and everything below it; and an input with no
// decomposable site builds no decompose node at all. Keyed on static
// prefix keys the layer built 1, 9, 16, 25 and 49 nodes.
func TestTreeKeysOnThePrograms(t *testing.T) {
	perStage := func(s *search) [core.StageStamp]int {
		var n [core.StageStamp]int
		for key := range s.memo {
			n[key.stage]++
		}
		return n
	}

	cfg, err := models.ByName("GPT_32B")
	if err != nil {
		t.Fatal(err)
	}
	mini, err := models.Miniature(cfg, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := models.BuildLayerStep(mini)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := checkTreeIsFlatLoop(t, "GPT_32B 4x8", layer, 4, enumerated(layer, 4))
	built := perStage(s)
	if want := [core.StageStamp]int{1, 9, 8, 17, 33}; built != want {
		t.Errorf("GPT_32B 4x8 built %v nodes per stage (pre, decompose, fuse, async, order), want %v", built, want)
	}

	// A second walk finds every node in the memo and shows where each
	// candidate landed.
	cands := enumerated(layer, 4)()
	at := s.grow(cands)
	if again := perStage(s); again != built {
		t.Fatalf("a second walk built nodes: %v, then %v", built, again)
	}
	unfriendly := map[string]*node{}
	for i, cand := range cands {
		if !cand.Baseline && cand.Opts.FuseAddIntoEinsum && !cand.Opts.OverlapFriendlyFusion {
			unfriendly[cand.Name] = at[i]
		}
	}
	pairs := 0
	for i, cand := range cands {
		if cand.Baseline || !cand.Opts.OverlapFriendlyFusion {
			continue
		}
		o := cand.Opts
		o.OverlapFriendlyFusion = false
		n, ok := unfriendly[o.Fingerprint()]
		if !ok {
			t.Fatalf("%s has no OverlapFriendlyFusion=false twin", cand.Name)
		}
		if n != at[i] {
			t.Errorf("%s and its OverlapFriendlyFusion=false twin landed on different nodes", cand.Name)
		}
		pairs++
	}
	if pairs == 0 {
		t.Fatal("no OverlapFriendlyFusion pairs enumerated")
	}

	siteless := hlo.NewComputation("siteless")
	a := siteless.Parameter(0, "a", []int{4, 8})
	b := siteless.Parameter(1, "b", []int{8, 32})
	siteless.AllGather(siteless.Einsum("mk,kn->mn", a, b), 0, topology.NewRing(4).AxisGroups(0))
	s, _ = checkTreeIsFlatLoop(t, "siteless", siteless, 4, enumerated(siteless, 4))
	if n := perStage(s)[core.StageDecompose]; n != 0 {
		t.Errorf("a site-less input built %d decompose nodes, want 0", n)
	}
}
