package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"overlap"
)

// site_proc re-executes the running binary as its workers; under go
// test that is this test binary.
func TestMain(m *testing.M) {
	overlap.MaybeTransportWorker()
	os.Exit(m.Run())
}

// tiny returns the workload at its minimum counts: one op per segment,
// one pair per serve_cold segment, one set-up.
func tiny(w workloadSpec) workloadSpec {
	w.ops, w.tracedOps, w.setups = passSegments*w.unit, w.unit, 1
	return w
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables pins BENCHMARK.json to spec.go and checks
// the limits the driver contract puts on the file.
func TestManifestMatchesTables(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}

	seen := map[string]bool{}
	check := func(kind, name string) {
		if !namePattern.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, namePattern)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, contract wants 2..8", len(workloads))
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
		if w.ops%(passSegments*w.unit) != 0 {
			t.Errorf("workload %s: %d ops do not split into %d equal segments", w.Name, w.ops, passSegments)
		}
	}
	hasSetup := false
	for _, m := range gated() {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, contract allows 128", len(perLayer))
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitPattern.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitPattern)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check("per-layer metric", m.Name)
	}
}

// contractMetrics parses a contract line and returns its metric names.
func contractMetrics(t *testing.T, line string) map[string]bool {
	t.Helper()
	var doc struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("contract line does not parse: %v\n%s", err, line)
	}
	if doc.Correct == nil || doc.Attempted == nil || doc.Failed == nil || *doc.Attempted < 1 {
		t.Fatalf("contract line lacks correct/attempted/failed: %s", line)
	}
	names := map[string]bool{}
	for n, m := range doc.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("metric %s lacks value or unit", n)
		}
		names[n] = true
	}
	return names
}

func sameNames(t *testing.T, what string, got map[string]bool, specs []metricSpec) {
	t.Helper()
	for _, s := range specs {
		if !got[s.Name] {
			t.Errorf("%s: metric %s is in BENCHMARK.json but was not emitted", what, s.Name)
		}
		delete(got, s.Name)
	}
	for n := range got {
		t.Errorf("%s: emitted metric %s is not in BENCHMARK.json", what, n)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs both passes of all six
// workloads at their minimum counts: no op may fail, the emitted names
// must be exactly BENCHMARK.json's, and the counts a later change is
// allowed to cite as exact must repeat exactly on a second traced run.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	// Two layer models instead of eleven keep serve_warm's set-up (one
	// plan compile per distinct request) in the test's time budget.
	defer func(all []string, pairs, reps int) { warmModels, comparePairs, probeReps = all, pairs, reps }(warmModels, comparePairs, probeReps)
	warmModels, comparePairs, probeReps = warmModels[:2], 2, 1

	out := t.TempDir()
	// The counts a later change may cite as exact, on the workload where
	// they are: the site runs one fixed program; a cold pass compiles
	// once per fingerprint (what its plans then execute depends on which
	// candidate won the tune, so its instruction counts are not exact).
	exact := map[string][]string{
		"site_compute": {"runtime.instr_per_op", "runtime.transfers_per_op", "tensor.flop_per_op"},
		"serve_cold":   {"serve.compiles", "serve.plan_coalesced"},
	}
	for _, w := range workloads {
		w = tiny(w)
		start := time.Now()
		res, err := measure(w, 1)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.Name, err)
		}
		untracedTook := time.Since(start)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s untraced: %d of %d ops failed", w.Name, res.Failed, res.Attempted)
		}
		sameNames(t, w.Name+" untraced", contractMetrics(t, contractLine(res)), gated())
		for _, s := range endToEnd {
			m, ok := res.Metrics[s.Name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s was not reported", w.Name, s.Name)
			}
			if s.Gated && m.Value <= 0 {
				t.Errorf("%s: gated metric %s is %g; gated metrics must never be 0", w.Name, s.Name, m.Value)
			}
		}

		first, err := tracedPass(w, 1, out)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if first.Failed != 0 {
			t.Errorf("%s traced: %d of %d ops failed", w.Name, first.Failed, first.Attempted)
		}
		sameNames(t, w.Name+" traced", contractMetrics(t, contractLine(first)), perLayer)
		if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
			t.Errorf("%s: span file: %v", w.Name, err)
		}
		t.Logf("%s: untraced pass %.1fs, traced pass %.1fs", w.Name, untracedTook.Seconds(), (time.Since(start) - untracedTook).Seconds())

		if len(exact[w.Name]) == 0 {
			continue
		}
		second, err := tracedPass(w, 1, out)
		if err != nil {
			t.Fatalf("%s traced again: %v", w.Name, err)
		}
		for _, n := range exact[w.Name] {
			if a, b := first.Metrics[n].Value, second.Metrics[n].Value; a != b || a == 0 {
				t.Errorf("%s: %s did not repeat exactly: %v then %v", w.Name, n, a, b)
			}
		}
	}
}

// TestColdRefusesMoreOpsThanFingerprints: a cold fingerprint can be
// sent once, so a pass longer than the list must fail in set-up, not
// index past it.
func TestColdRefusesMoreOpsThanFingerprints(t *testing.T) {
	if _, err := newServe(true, serveClients*(len(coldList())+1), 1, nil); err == nil {
		t.Fatal("newServe accepted more cold ops than there are fingerprints")
	}
}

// TestCompareGates checks -compare's verdicts on synthetic runs: only a
// gated metric or fail_frac fails the comparison.
func TestCompareGates(t *testing.T) {
	run := func(edit func(e2e map[string]metric)) *fullRun {
		f := &fullRun{Workloads: map[string]*workloadRun{}}
		for _, w := range workloads {
			e2e := map[string]metric{}
			for _, s := range endToEnd {
				e2e[s.Name] = metric{Value: 10, Unit: s.Unit, Spread: 0.01}
			}
			e2e["fail_frac"] = metric{Unit: "ratio"}
			edit(e2e)
			f.Workloads[w.Name] = &workloadRun{EndToEnd: e2e, PerLayer: map[string]metric{}}
		}
		return f
	}
	write := func(name string, f *fullRun) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := func(name string, value, spread float64) func(map[string]metric) {
		return func(e2e map[string]metric) {
			m := e2e[name]
			m.Value, m.Spread = value, spread
			e2e[name] = m
		}
	}
	base := write("base.json", run(func(map[string]metric) {}))
	for _, tc := range []struct {
		name   string
		edit   func(map[string]metric)
		ok     bool
		expect string
	}{
		{"same", set("op_ms_p50", 10.5, 0.01), true, "ok"},
		{"slower", set("op_ms_p50", 13, 0.01), true, "worse (not gated)"},
		{"noisy", set("op_ms_p50", 13, 0.5), true, "unresolved"},
		{"hungrier", set("alloc_kb_per_op", 13, 0.01), false, "REGRESSION"},
		{"hungrier within the noise", set("alloc_kb_per_op", 12.7, 0.3), true, "unresolved"},
		{"hungrier beyond the noise", set("alloc_kb_per_op", 30, 0.3), false, "REGRESSION"},
		{"slower set-up beyond the noise", set("setup_s", 30, 0.3), false, "REGRESSION"},
		{"failing", set("fail_frac", 0.01, 0), false, "REGRESSION"},
	} {
		var buf bytes.Buffer
		ok, err := compareFiles(&buf, base, write("new.json", run(tc.edit)))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !bytes.Contains(buf.Bytes(), []byte(tc.expect)) {
			t.Errorf("%s: ok=%v (want %v), output lacks %q:\n%s", tc.name, ok, tc.ok, tc.expect, buf.String())
		}
	}
}

// TestSourceIsFormattedAndVets keeps the package gofmt- and vet-clean
// even where CI's own checks are not run.
func TestSourceIsFormattedAndVets(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		formatted, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !bytes.Equal(src, formatted) {
			t.Errorf("%s is not gofmt-formatted", f)
		}
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH; vet is left to CI")
	}
	if out, err := exec.Command(goTool, "vet", ".").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
}
