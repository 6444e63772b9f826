package serve

import (
	"testing"

	"overlap/internal/autotune"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
)

// TestPlanCacheLRU pins the eviction order: capacity overflow evicts
// the least-recently-used entry, and a get refreshes recency.
func TestPlanCacheLRU(t *testing.T) {
	pc := newPlanCache(2)
	pc.put("a", dummyPlan("a"))
	pc.put("b", dummyPlan("b"))

	// Touch a so b becomes the LRU victim.
	if _, ok := pc.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}

	e0 := svPlanEvictions.Value()
	pc.put("c", dummyPlan("c"))
	if d := svPlanEvictions.Value() - e0; d != 1 {
		t.Fatalf("eviction counter moved %v, want 1", d)
	}
	if _, ok := pc.get("b"); ok {
		t.Fatal("b survived eviction; LRU order is wrong")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := pc.get(key); !ok {
			t.Fatalf("%s was evicted; LRU order is wrong", key)
		}
	}
	if keys := pc.keys(); len(keys) != 2 {
		t.Fatalf("%d plans cached, want 2", len(keys))
	}
}

// TestPlanCacheBodyFirstLandingWins: a plan landing under a new request
// key for a body the cache holds adopts the held entry — the request key
// is answered with the first plan, and nothing grows or is evicted — so
// every name of a body serves one plan.
func TestPlanCacheBodyFirstLandingWins(t *testing.T) {
	pc := newPlanCache(2)
	first, second := dummyPlan("v1"), dummyPlan("v2")
	second.plan.Fingerprint = first.plan.Fingerprint
	pc.put("a", first)
	e0 := svPlanEvictions.Value()
	pc.put("b", second)
	if d := svPlanEvictions.Value() - e0; d != 0 {
		t.Fatalf("a second name of a held body evicted %v entries", d)
	}
	for _, key := range []string{"a", "b"} {
		if got, ok := pc.get(key); !ok || got != first {
			t.Fatalf("get(%s) = %v, want the body's first plan", key, got)
		}
	}
	if keys := pc.keys(); len(keys) != 2 || pc.order.Len() != 1 {
		t.Fatalf("request keys %v over %d bodies, want 2 over 1", keys, pc.order.Len())
	}
}

// TestKeysOverTheCorpus: on every corpus program, a renamed clone has
// the program's autotune.Key — one body, one plan — and a request key of
// its own, and a clone with one einsum's split-K factor changed has
// another autotune.Key.
func TestKeysOverTheCorpus(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.TPUv4()
	specKey := autotune.SpecKeyOf(spec)
	for _, p := range progs {
		requestKey := func(c *hlo.Computation) string { return specKey.Key(textFingerprint(c), p.Devices) }
		renamed := p.Comp.Clone()
		renamed.Name = "renamed." + p.Comp.Name
		if autotune.Key(renamed, spec, p.Devices) != autotune.Key(p.Comp, spec, p.Devices) {
			t.Errorf("%s: a renamed clone is another body", p.Name)
		}
		if requestKey(renamed) == requestKey(p.Comp) {
			t.Errorf("%s: a renamed clone has the program's request key", p.Name)
		}
		edited := p.Comp.Clone()
		einsum := firstEinsum(edited)
		if einsum == nil {
			t.Fatalf("%s: no einsum to edit", p.Name)
		}
		einsum.SplitK = max(einsum.SplitK, 1) + 1
		if autotune.Key(edited, spec, p.Devices) == autotune.Key(p.Comp, spec, p.Devices) {
			t.Errorf("%s: a clone with %s's split-K factor changed is the same body", p.Name, einsum.Name)
		}
	}
}

// firstEinsum returns c's first einsum, looking into fusion and loop
// bodies, or nil.
func firstEinsum(c *hlo.Computation) *hlo.Instruction {
	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		if in.Op == hlo.OpEinsum {
			return in
		}
		if in.Body != nil {
			if e := firstEinsum(in.Body); e != nil {
				return e
			}
		}
	}
	return nil
}

// TestPlanCacheKeys lists the cached fingerprints.
func TestPlanCacheKeys(t *testing.T) {
	pc := newPlanCache(4)
	pc.put("a", dummyPlan("a"))
	pc.put("b", dummyPlan("b"))
	keys := pc.keys()
	if len(keys) != 2 {
		t.Fatalf("keys = %v, want 2 entries", keys)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("keys = %v, want a and b", keys)
	}
}
