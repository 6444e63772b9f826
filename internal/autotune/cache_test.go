package autotune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestLoadCacheCorruptCounted pins the degradation contract: a cache
// file that fails to parse loads as empty (cold tune, never an error)
// and bumps the corruption counter so the poisoning shows up in
// telemetry. A version mismatch is a deliberate invalidation, not rot,
// and must load cold without touching the counter.
func TestLoadCacheCorruptCounted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "autotune.json")

	before := atCacheCorrupt.Value()
	if f := loadCache(path); len(f.Entries) != 0 {
		t.Fatalf("missing file loaded %d entries", len(f.Entries))
	}
	if atCacheCorrupt.Value() != before {
		t.Fatal("a missing cache file was counted as corrupt")
	}

	for _, junk := range []string{"{not json", `"a bare string"`, `{"version":2}`} {
		if err := os.WriteFile(path, []byte(junk), 0o644); err != nil {
			t.Fatal(err)
		}
		before = atCacheCorrupt.Value()
		f := loadCache(path)
		if len(f.Entries) != 0 {
			t.Fatalf("corrupt cache %q loaded %d entries", junk, len(f.Entries))
		}
		if f.Version != cacheVersion {
			t.Fatalf("corrupt cache %q did not reset to version %d", junk, cacheVersion)
		}
		if atCacheCorrupt.Value() != before+1 {
			t.Fatalf("corrupt cache %q did not bump the corruption counter", junk)
		}
	}

	stale := cacheFile{Version: cacheVersion - 1, Entries: map[string]cacheEntry{"k": {}}}
	data, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before = atCacheCorrupt.Value()
	if f := loadCache(path); len(f.Entries) != 0 {
		t.Fatal("version-mismatched cache returned entries")
	}
	if atCacheCorrupt.Value() != before {
		t.Fatal("a version mismatch was counted as corruption")
	}
}

// TestWriteFileAtomic pins the crash-safe replace: the write goes
// through a temp file and a rename, overwrites whatever was there
// (including a torn file), and leaves no temp droppings behind on
// either the success or the failure path.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "autotune.json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	want := []byte(`{"version":2,"entries":{}}`)
	if err := writeFileAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
	var parsed cacheFile
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Fatalf("replaced file is not valid JSON: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after a successful write", e.Name())
		}
	}

	// Failure path: a directory that does not exist must error without
	// dropping a temp file anywhere visible.
	if err := writeFileAtomic(filepath.Join(dir, "missing", "autotune.json"), want); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after a failed write", e.Name())
		}
	}
}

// TestCacheStoreConcurrentKeepsAll is the daemon's cold burst: one
// compile goroutine per distinct fingerprint, all storing into one
// cache file. Every decision must survive — load → merge → rename is
// serialised, so no store renames over another's entry.
func TestCacheStoreConcurrentKeepsAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "autotune.json")
	const stores = 32
	keys := make([]string, stores)
	errs := make([]error, stores)
	var wg sync.WaitGroup
	for i := range keys {
		keys[i] = fmt.Sprintf("prog%02d|n=4", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = cacheStore(path, keys[i], 4, &Result{BestName: keys[i]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	f := loadCache(path)
	for _, k := range keys {
		if e, ok := f.Entries[k]; !ok || e.BestName != k {
			t.Errorf("entry %s lost (file holds %d of %d)", k, len(f.Entries), stores)
		}
	}
}
