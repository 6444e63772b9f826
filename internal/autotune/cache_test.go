package autotune

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// goldenPlan decodes the committed plan fixture: a valid plan to store,
// corrupt and load.
func goldenPlan(t *testing.T) *Plan {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "plan.golden"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLoadCacheCorruptCounted pins the degradation contract, one plan
// file at a time: a file that does not decode, or that holds a plan
// other than the one asked for, loads as a miss (cold tune, never an
// error) and bumps the corruption counter once, so the poisoning shows
// up in telemetry. A missing file is a plain miss, and a PlanVersion
// mismatch is a deliberate invalidation, not rot: neither touches the
// counter. Whatever was there, the next store overwrites it.
func TestLoadCacheCorruptCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plans")
	good := goldenPlan(t)
	key, devices := good.Fingerprint, good.Devices
	encode := func(edit func(*Plan)) string {
		p := *good
		edit(&p)
		data, err := p.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	for _, tc := range []struct {
		name, content string
		corrupt       bool
	}{
		{"missing file", "", false},
		{"torn JSON", "{not json", true},
		{"not an object", `"a bare string"`, true},
		{"program does not parse", encode(func(p *Plan) { p.Program = "site {\n  %g = f32[] all-gather()\n}\n" }), true},
		{"program names a device outside the plan's ring", encode(func(p *Plan) {
			p.Program = "site {\n  %a = f32[2 2] parameter(), index=0\n  %g = f32[4 2] all-gather(%a), axis=0 groups=[[0 99]]\n}\n"
		}), true},
		{"another fingerprint", encode(func(p *Plan) { p.Fingerprint = "someone else's" }), true},
		{"another ring size", encode(func(p *Plan) { p.Devices = devices + 1 }), true},
		{"older version", encode(func(p *Plan) { p.Version = PlanVersion - 1 }), false},
	} {
		if tc.content != "" {
			if err := os.MkdirAll(dir, 0o700); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(planPath(dir, key), []byte(tc.content), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		before := atCacheCorrupt.Value()
		if p, prog := loadPlan(dir, key, devices); p != nil || prog != nil {
			t.Fatalf("%s: loaded a plan", tc.name)
		}
		want := before
		if tc.corrupt {
			want++
		}
		if got := atCacheCorrupt.Value(); got != want {
			t.Fatalf("%s: corruption counter moved %v -> %v, want %v", tc.name, before, got, want)
		}
		if err := storePlan(dir, good); err != nil {
			t.Fatalf("%s: store over it: %v", tc.name, err)
		}
		if p, prog := loadPlan(dir, key, devices); p == nil || p.Program != good.Program || prog.Format() != good.Program {
			t.Fatalf("%s: the next store did not replace it", tc.name)
		}
	}

	info, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm&0o077 != 0 {
		t.Fatalf("store directory is %v: program text must not sit where others can write", perm)
	}
}

// TestWriteFileAtomic pins the crash-safe replace: the write goes
// through a temp file and a rename, overwrites whatever was there
// (including a torn file), and leaves no temp droppings behind on
// either the success or the failure path.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	want := []byte(`{"version":3}`)
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
	noTemp(t, dir, "a successful write")

	// Failure path: a directory that does not exist must error without
	// dropping a temp file anywhere visible.
	if err := writeFileAtomic(filepath.Join(dir, "missing", "plan.json"), want); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	noTemp(t, dir, "a failed write")
}

func noTemp(t *testing.T, dir, after string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after %s", e.Name(), after)
		}
	}
}

// TestCacheStoreConcurrentKeepsAll is the daemon's cold burst: one
// compile goroutine per distinct fingerprint, all storing into one
// directory, plus several storing one fingerprint at once (two daemons
// sharing a store). Every plan must load afterwards — each has its own
// file, and racing writers of one file each rename a whole plan into
// place — and no temp file may survive.
func TestCacheStoreConcurrentKeepsAll(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "plans")
	good := goldenPlan(t)
	const distinct, same = 32, 8
	keys := make([]string, distinct+same)
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i := range keys {
		keys[i] = fmt.Sprintf("prog%02d|n=2", min(i, distinct))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := *good
			p.Fingerprint = keys[i]
			errs[i] = storePlan(dir, &p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	for _, k := range keys {
		if p, _ := loadPlan(dir, k, good.Devices); p == nil || p.Fingerprint != k {
			t.Errorf("plan %s lost", k)
		}
	}
	noTemp(t, dir, "the burst")
}
