package serve

import (
	"testing"
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

// TestPlanCacheReplace: re-putting a key updates in place without
// growing or evicting.
func TestPlanCacheReplace(t *testing.T) {
	pc := newPlanCache(2)
	pc.put("a", dummyPlan("v1"))
	e0 := svPlanEvictions.Value()
	pc.put("a", dummyPlan("v2"))
	if d := svPlanEvictions.Value() - e0; d != 0 {
		t.Fatalf("replacing a key evicted %v entries", d)
	}
	got, ok := pc.get("a")
	if !ok || got.plan.BestName != "v2" {
		t.Fatalf("get after replace = %v, want v2", got)
	}
	if keys := pc.keys(); len(keys) != 1 {
		t.Fatalf("%d plans cached, want 1", len(keys))
	}
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
