package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// getTrace fetches GET /v1/runs/{id} and decodes the artifact.
func getTrace(t *testing.T, ts *httptest.Server, id string) *obs.RunTrace {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/runs/%s: status %d", id, resp.StatusCode)
	}
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	trace, err := obs.DecodeRunTrace(raw)
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	return trace
}

// checkWireVerdicts asserts what /v1/runs/{id} promises: every wire
// span carries a verdict consistent with obs.Attribute over the same
// spans — the artifact's stamps are the analyzer's conclusions, not a
// second opinion.
func checkWireVerdicts(t *testing.T, trace *obs.RunTrace) {
	t.Helper()
	if trace.Attribution == nil {
		t.Fatal("trace has no attribution report")
	}
	spans := make([]obs.Span, 0, len(trace.Spans))
	for _, s := range trace.Spans {
		spans = append(spans, obs.Span{
			Device: s.Device, Track: s.Track, Cat: s.Cat, Name: s.Name,
			Start: s.StartMS / 1e3, Dur: s.DurMS / 1e3,
		})
	}
	rep := obs.Attribute(spans)
	byName := map[string]obs.Attribution{}
	for _, a := range rep.Collectives {
		byName[a.Name] = a
	}
	wire := 0
	for _, s := range trace.Spans {
		isWire := (s.Track == obs.TrackTransfer && s.Cat == obs.CatTransfer) ||
			(s.Track == obs.TrackCompute && s.Cat == obs.CatCollective)
		if !isWire {
			continue
		}
		wire++
		a, ok := byName[s.Name]
		if !ok {
			t.Errorf("%s: wire span not in re-derived attribution", s.Name)
			continue
		}
		want := obs.VerdictPartial
		switch {
		case a.Blocking || a.Hidden == 0:
			want = obs.VerdictExposed
		case a.Exposed <= 1e-12*a.Wire:
			want = obs.VerdictHidden
		}
		if s.Verdict != want {
			t.Errorf("%s: span verdict %q, attribution derives %q", s.Name, s.Verdict, want)
		}
	}
	if wire == 0 {
		t.Error("trace has no wire spans to attribute")
	}
}

// TestServeRunTraceEndpoints drives the acceptance criterion: a served
// run returns a run ID, /v1/runs lists it, /v1/runs/{id} returns a
// trace whose wire spans carry attribution consistent with
// obs.Attribute — for both the layer ("run") and "train" scenarios —
// and the Chrome format renders from the same artifact.
func TestServeRunTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	reqs := []struct {
		scenario string
		req      Request
	}{
		{"run", miniatureRequest()},
		{"train", Request{Model: "GPT_32B", Devices: 4, Dim: 2, Scenario: "train", Layers: 1}},
	}
	for _, tc := range reqs {
		rr, _, _, err := postRun(ts, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.scenario, err)
		}
		if rr.RunID == "" {
			t.Fatalf("%s: response carries no run_id", tc.scenario)
		}

		trace := getTrace(t, ts, rr.RunID)
		if trace.ID != rr.RunID {
			t.Errorf("trace id %s, response said %s", trace.ID, rr.RunID)
		}
		if trace.Scenario != tc.scenario {
			t.Errorf("trace scenario %q, want %q", trace.Scenario, tc.scenario)
		}
		if trace.Status != obs.StatusOK {
			t.Errorf("%s: trace status %q", tc.scenario, trace.Status)
		}
		if len(trace.Stages) != 3 {
			t.Errorf("%s: %d stages, want plan/admission/run", tc.scenario, len(trace.Stages))
		}
		checkWireVerdicts(t, trace)

		// Chrome export from the same artifact.
		resp, err := http.Get(ts.URL + "/v1/runs/" + rr.RunID + "?format=chrome")
		if err != nil {
			t.Fatal(err)
		}
		var chrome struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
			Metadata    map[string]any    `json:"metadata"`
		}
		err = json.NewDecoder(resp.Body).Decode(&chrome)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: chrome format does not parse: %v", tc.scenario, err)
		}
		if chrome.Metadata["run_id"] != rr.RunID {
			t.Errorf("%s: chrome metadata run_id %v", tc.scenario, chrome.Metadata["run_id"])
		}
		if len(chrome.TraceEvents) != len(trace.Spans)+len(trace.Stages) {
			t.Errorf("%s: chrome has %d events, artifact has %d spans + %d stages",
				tc.scenario, len(chrome.TraceEvents), len(trace.Spans), len(trace.Stages))
		}
	}

	// /v1/runs lists both, newest first.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Runs []RunSummary `json:"runs"`
		Size int          `json:"size"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if listing.Size < 2 || len(listing.Runs) != listing.Size {
		t.Fatalf("listing has %d runs (size %d), want >= 2", len(listing.Runs), listing.Size)
	}
	if listing.Runs[0].Scenario != "train" {
		t.Errorf("listing is not newest-first: leads with scenario %q", listing.Runs[0].Scenario)
	}

	// Unknown IDs and bad formats answer 4xx, not 5xx.
	if resp, err := http.Get(ts.URL + "/v1/runs/r-does-not-exist"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown run id: status %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestServeFailedRunTrace pins the failure path: an injected-fault run
// answers 5xx with the run ID in the body, its trace is retrievable
// with status "failed" and the full plan/admission/run breakdown,
// and the failed-run histogram sees it.
func TestServeFailedRunTrace(t *testing.T) {
	cfg := testConfig()
	cfg.DebugFaults = true
	_, ts := newTestServer(t, cfg)

	// Warm the plan first so the failure is a run failure, not a compile
	// failure.
	if _, _, _, err := postRun(ts, miniatureRequest()); err != nil {
		t.Fatal(err)
	}

	before := svFailedRunSeconds.Count()
	req := miniatureRequest()
	req.Fault = "crash:dev:1"
	req.DeadlineMS = 30000
	_, status, raw, err := postRun(ts, req)
	if err == nil || status != http.StatusServiceUnavailable {
		t.Fatalf("injected crash answered status %d, want 503", status)
	}
	var body struct {
		Error    string `json:"error"`
		RunID    string `json:"run_id"`
		RunError *struct {
			Phase string `json:"phase"`
			RunID string `json:"run_id"`
		} `json:"run_error"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("5xx body does not parse: %v\n%s", err, raw)
	}
	if body.RunID == "" {
		t.Fatal("5xx body carries no run_id")
	}
	if body.RunError == nil || body.RunError.RunID != body.RunID {
		t.Errorf("run_error.run_id does not match body run_id %s", body.RunID)
	}
	if !strings.Contains(body.Error, "[run "+body.RunID+"]") {
		t.Errorf("error string %q does not carry the run id", body.Error)
	}

	trace := getTrace(t, ts, body.RunID)
	if trace.Status != obs.StatusFailed {
		t.Errorf("failed run's trace has status %q", trace.Status)
	}
	if trace.Error == nil || trace.Error.Cause == "" {
		t.Error("failed trace carries no error attribution")
	}
	if len(trace.Stages) != 3 {
		t.Errorf("failed trace has %d stages, want the full breakdown", len(trace.Stages))
	}
	if got := svFailedRunSeconds.Count() - before; got != 1 {
		t.Errorf("failed-run histogram count moved by %d, want 1", got)
	}
}

// TestServeTraceDir verifies the durable twin: with TraceDir set, every
// recorded run also lands as <dir>/<id>.json and decodes.
func TestServeTraceDir(t *testing.T) {
	cfg := testConfig()
	cfg.TraceDir = t.TempDir()
	_, ts := newTestServer(t, cfg)

	rr, _, _, err := postRun(ts, miniatureRequest())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.TraceDir, rr.RunID+".json"))
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	trace, err := obs.DecodeRunTrace(data)
	if err != nil {
		t.Fatalf("trace file does not decode: %v", err)
	}
	if trace.ID != rr.RunID {
		t.Errorf("trace file id %s, want %s", trace.ID, rr.RunID)
	}
}

// TestServeRunIDSanitized pins the trace endpoint's path-traversal
// defense: the run id from the URL reaches a filepath.Join against
// TraceDir (the disk-fallback read), so anything that is not exactly an
// obs.NewRunID — "..", separators, encoded separators, hex of the wrong
// length or case — must 404 before any filesystem access. The handler
// is driven directly so mux path cleaning cannot mask a weak check.
func TestServeRunIDSanitized(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	cfg.TraceDir = filepath.Join(dir, "traces")
	if err := os.Mkdir(cfg.TraceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A trace-shaped secret OUTSIDE TraceDir: a traversal that slips
	// through the id check would serve it with a 200.
	secret := &obs.RunTrace{Version: obs.RunTraceVersion, ID: "r-aaaaaaaaaaaaaaaa", Model: "OUT-OF-DIR-SECRET"}
	data, err := secret.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "secret.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{
		"../secret",               // plain traversal
		"..%2fsecret",             // encoded separator (stays raw when the mux is bypassed)
		"..",                      // parent directory
		"secret",                  // wrong shape entirely
		"r-AAAAAAAAAAAAAAAA",      // uppercase hex is not what NewRunID mints
		"r-aaaaaaaaaaaaaaa",       // 15 hex digits
		"r-aaaaaaaaaaaaaaaaa",     // 17 hex digits
		"r-aaaaaaaaaaaaaaaa/x",    // suffixed path segment
		"r-aaaaaaaaaaaaaaaa.json", // extension smuggling
	} {
		r := httptest.NewRequest(http.MethodGet, "/v1/runs/"+id, nil)
		// Undo the parser's own normalization so the handler sees the
		// hostile id verbatim, as it would from a client that does not
		// clean paths.
		r.URL.Path = "/v1/runs/" + id
		w := httptest.NewRecorder()
		s.handleRunByID(w, r)
		if w.Code != http.StatusNotFound {
			t.Errorf("id %q: status %d, want 404", id, w.Code)
		}
		if strings.Contains(w.Body.String(), secret.Model) {
			t.Errorf("id %q: response leaked the out-of-dir artifact", id)
		}
	}

	// The disk fallback itself works for a well-formed id: a trace
	// present only in TraceDir (e.g. evicted from the recorder) is
	// served from its durable twin.
	inside := &obs.RunTrace{Version: obs.RunTraceVersion, ID: "r-0123456789abcdef"}
	data, err = inside.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.TraceDir, inside.ID+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/runs/"+inside.ID, nil)
	w := httptest.NewRecorder()
	s.handleRunByID(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("disk fallback: status %d, want 200 (body %s)", w.Code, w.Body.String())
	}
	got, err := obs.DecodeRunTrace(w.Body.Bytes())
	if err != nil {
		t.Fatalf("disk fallback body does not decode: %v", err)
	}
	if got.ID != inside.ID {
		t.Fatalf("disk fallback served trace %q, want %q", got.ID, inside.ID)
	}
}

// goldenSpans is a fixed two-device span stream in the order the
// runtime records one (obs.SpanLess): partial einsums hiding one
// transfer fully and one partly, a blocking all-gather, a second
// device stalled on its done.
func goldenSpans() []obs.Span {
	return []obs.Span{
		{Device: 0, Track: obs.TrackCompute, Cat: obs.CatCompute, Name: "einsum.p0", Start: 0, Dur: 0.010},
		{Device: 0, Track: obs.TrackCompute, Cat: obs.CatCompute, Name: "einsum.p1", Start: 0.010, Dur: 0.005},
		{Device: 0, Track: obs.TrackCompute, Cat: obs.CatCollective, Name: "all-gather.3", Start: 0.020, Dur: 0.004},
		{Device: 0, Track: obs.TrackTransfer, Cat: obs.CatTransfer, Name: "collective-permute-start.1", Start: 0, Dur: 0.008},
		{Device: 0, Track: obs.TrackTransfer, Cat: obs.CatTransfer, Name: "collective-permute-start.2", Start: 0.012, Dur: 0.008},
		{Device: 1, Track: obs.TrackCompute, Cat: obs.CatCompute, Name: "einsum.p0", Start: 0.001, Dur: 0.009},
		{Device: 1, Track: obs.TrackCompute, Cat: obs.CatStall, Name: "collective-permute-done.4", Start: 0.010, Dur: 0.004},
		{Device: 1, Track: obs.TrackTransfer, Cat: obs.CatTransfer, Name: "collective-permute-start.1", Start: 0.001, Dur: 0.007},
	}
}

// getBytes fetches a URL that must answer 200 and returns the body.
func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v: %s", url, resp.StatusCode, err, data)
	}
	return data
}

// TestRunGetGolden pins encode-on-read against the bytes encode-on-write
// produced. The goldens under testdata are what the recorder's old
// stored artifact — obs.NewRunTrace over goldenSpans with this header —
// encoded to, as JSON and as a Chrome trace, generated before the
// recorder stopped storing artifacts. A run recorded as slab + header
// must GET as exactly those bytes: while it is in the ring, after ring
// wraparound moved it to the kept set, and as its TraceDir twin.
func TestRunGetGolden(t *testing.T) {
	cfg := testConfig()
	cfg.FlightRecorderSize, cfg.FlightKeep = 2, 1
	cfg.TraceDir = t.TempDir()
	s, ts := newTestServer(t, cfg)

	const id = "r-00000000000000ab"
	start := time.Date(2026, 1, 2, 3, 4, 5, 678000000, time.UTC)
	timing := TimingMS{Plan: 1.25, Admission: 0.25, Run: 24, Total: 26.5}
	spans := goldenSpans()
	head := s.newHeader(id, &Request{Model: "GPT_32B"}, "fp-golden", 2, start, timing, spans)
	head.StepMS = 24
	s.record(head, spans)
	if head.Spans != nil {
		t.Fatal("recording a run materialised its spans on the header")
	}

	check := func(when string) {
		t.Helper()
		for format, golden := range map[string]string{"": "run_get.golden.json", "?format=chrome": "run_get.golden.chrome.json"} {
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if got := getBytes(t, ts.URL+"/v1/runs/"+id+format); !bytes.Equal(got, want) {
				t.Errorf("%s: GET %s differs from %s:\n%s", when, format, golden, got)
			}
		}
	}
	check("in the ring")

	twin, err := os.ReadFile(filepath.Join(cfg.TraceDir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(twin, getBytes(t, ts.URL+"/v1/runs/"+id)) {
		t.Error("the TraceDir twin differs from the GET")
	}

	// Two faster runs wrap the ring; the golden run retires into the
	// free keep slot.
	for i := 0; i < 2; i++ {
		other := s.newHeader(fmt.Sprintf("r-%016x", i), &Request{Model: "GPT_32B"}, "fp-golden", 2, start, TimingMS{Total: 1}, nil)
		s.record(other, nil)
	}
	kept := false
	for _, r := range s.recorder.list() {
		kept = kept || (r.ID == id && r.Kept)
	}
	if !kept {
		t.Fatal("the golden run did not move to the kept set")
	}
	check("in the kept set")
	if err := os.Remove(filepath.Join(cfg.TraceDir, id+".json")); err != nil {
		t.Fatal(err)
	}
	check("in the kept set, twin gone")
}

// TestFailedCheckIsRecorded: a run whose interpreter cross-check fails
// is the one run an operator will ask for. It answers 500 with its
// run_id and fingerprint in the body, and the flight recorder holds it
// as failed — spans, attribution and the check's complaint included.
func TestFailedCheckIsRecorded(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	req := miniatureRequest()
	if _, _, _, err := postRun(ts, req); err != nil {
		t.Fatal(err)
	}
	s.check = func(*hlo.Computation, int, [][]*tensor.Tensor, *runtime.Result) error {
		return fmt.Errorf("output on device 2 diverges bitwise from the interpreter")
	}
	req.Check = true
	_, status, raw, err := postRun(ts, req)
	if err == nil || status != http.StatusInternalServerError {
		t.Fatalf("a failed check answered %d (%v), want 500", status, err)
	}
	var body errorBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("the 500 body is not an errorBody: %v: %s", err, raw)
	}
	if !runIDPattern.MatchString(body.RunID) || body.Fingerprint == "" || !strings.Contains(body.Error, "diverges") {
		t.Fatalf("the 500 body does not identify the run: %+v", body)
	}
	trace := getTrace(t, ts, body.RunID)
	if trace.Status != obs.StatusFailed || trace.Error == nil || !strings.Contains(trace.Error.Cause, "diverges") || trace.Error.Phase != "check" {
		t.Fatalf("the recorded run is not marked as a failed check: status %q, error %+v", trace.Status, trace.Error)
	}
	if len(trace.Spans) == 0 || trace.Attribution == nil || len(trace.Stages) != 3 {
		t.Fatalf("the recorded run lost its spans (%d), attribution or stages (%d)", len(trace.Spans), len(trace.Stages))
	}
	checkWireVerdicts(t, trace)

	// The daemon keeps serving, and the request's buffers went back.
	s.check = runtime.CheckInterpreter
	if rr, _, _, err := postRun(ts, req); err != nil || !rr.Checked {
		t.Fatalf("the request after a failed check: %v", err)
	}
}

// TestConcurrentWarmRequestsOnePlan is the -race witness for what warm
// requests of one plan share — the Executable, the arena's free lists
// their arguments and outputs cycle through, the scratch pool their
// packs come from, the flight recorder — and what they must not: each
// draws, packs and releases its own arguments. Eight at once, twice
// over, every digest the one its seed has.
func TestConcurrentWarmRequestsOnePlan(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrentRuns = 8
	_, ts := newTestServer(t, cfg)
	want := map[int64]string{}
	for _, seed := range []int64{1, 2} {
		req := miniatureRequest()
		req.Seed, req.Check = seed, true
		rr, _, _, err := postRun(ts, req)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = rr.Digest
	}
	if want[1] == want[2] {
		t.Fatal("two seeds, one digest: the arguments do not depend on the seed")
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				req := miniatureRequest()
				req.Seed, req.Check = int64(1+(c+i)%2), c%4 == 0
				rr, _, _, err := postRun(ts, req)
				if err != nil {
					t.Error(err)
					return
				}
				if rr.Digest != want[req.Seed] {
					t.Errorf("client %d request %d (seed %d): digest %s, want %s", c, i, req.Seed, rr.Digest, want[req.Seed])
				}
				resp, err := http.Get(ts.URL + "/v1/runs/" + rr.RunID)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: GET of its own run: %v", c, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
}

// recorded copies what the flight recorder holds for a run: its header
// and its span stream.
func (fr *flightRecorder) recorded(id string) (*obs.RunTrace, []obs.Span) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	e, ok := fr.entries[id]
	if !ok {
		return nil, nil
	}
	head := *e.head
	return &head, slices.Clone(e.spans)
}

// TestTraceArtifactIsNewRunTrace pins the deferred report: a served run
// is recorded with its overlap efficiency and no attribution, and what
// a GET reads — as JSON and as a Chrome trace — and what the TraceDir
// twin holds are byte for byte obs.NewRunTrace over the run's spans
// with the header's fields, for a layer run, a training run and a run
// whose interpreter check failed. The answer's overlap_efficiency is
// that artifact's.
func TestTraceArtifactIsNewRunTrace(t *testing.T) {
	cfg := testConfig()
	cfg.TraceDir = t.TempDir()
	s, ts := newTestServer(t, cfg)
	train := Request{Model: "GPT_32B", Devices: 4, Dim: 2, Scenario: "train", Layers: 1}
	for _, tc := range []struct {
		name   string
		req    Request
		failed bool
	}{
		{"layer", miniatureRequest(), false},
		{"train", train, false},
		{"check failed", miniatureRequest(), true},
	} {
		var id string
		var answered float64
		if tc.failed {
			s.check = func(*hlo.Computation, int, [][]*tensor.Tensor, *runtime.Result) error {
				return fmt.Errorf("output on device 1 diverges bitwise from the interpreter")
			}
			req := tc.req
			req.Check = true
			_, status, raw, _ := postRun(ts, req)
			s.check = runtime.CheckInterpreter
			var body errorBody
			if err := json.Unmarshal(raw, &body); err != nil || status != http.StatusInternalServerError {
				t.Fatalf("%s: status %d, body %s (%v)", tc.name, status, raw, err)
			}
			id = body.RunID
		} else {
			rr, _, _, err := postRun(ts, tc.req)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			id, answered = rr.RunID, rr.OverlapEfficiency
		}

		head, spans := s.recorder.recorded(id)
		if head == nil || len(spans) == 0 {
			t.Fatalf("%s: run %s is not recorded with its spans", tc.name, id)
		}
		if head.Attribution != nil || head.Spans != nil {
			t.Fatalf("%s: the recorded header carries an attribution report or spans before any read", tc.name)
		}
		want := obs.NewRunTrace(id, head.Scenario, spans)
		want.Model, want.Fingerprint, want.Devices, want.Start = head.Model, head.Fingerprint, head.Devices, head.Start
		want.Stages, want.StepMS, want.TotalMS = head.Stages, head.StepMS, head.TotalMS
		want.Status, want.Error = head.Status, head.Error
		if tc.failed != (want.Status == obs.StatusFailed) {
			t.Fatalf("%s: recorded status %q", tc.name, want.Status)
		}
		if head.OverlapEfficiency != want.OverlapEfficiency || (!tc.failed && answered != want.OverlapEfficiency) {
			t.Fatalf("%s: header efficiency %v, answer %v, artifact %v", tc.name, head.OverlapEfficiency, answered, want.OverlapEfficiency)
		}
		if want.Attribution == nil {
			t.Fatalf("%s: the run's spans hold no collective: nothing to attribute", tc.name)
		}
		wantJSON, err := want.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		wantChrome, err := want.ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		if got := getBytes(t, ts.URL+"/v1/runs/"+id); !bytes.Equal(got, wantJSON) {
			t.Errorf("%s: GET differs from obs.NewRunTrace:\n%s\nwant\n%s", tc.name, got, wantJSON)
		}
		if got := getBytes(t, ts.URL+"/v1/runs/"+id+"?format=chrome"); !bytes.Equal(got, wantChrome) {
			t.Errorf("%s: GET ?format=chrome differs from obs.NewRunTrace's Chrome trace", tc.name)
		}
		twin, err := os.ReadFile(filepath.Join(cfg.TraceDir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(twin, wantJSON) {
			t.Errorf("%s: the TraceDir twin differs from obs.NewRunTrace", tc.name)
		}
	}
}

// TestTraceReadsRacePosts is the -race witness for the deferred report:
// four clients POST through a ring of four while two more GET the
// newest runs, as JSON and as Chrome traces, so the recorder attributes
// span slabs under its lock while runs are recorded and evicted around
// it. Every GET that finds its run reads an artifact whose efficiency
// is the one its POST answered, and whose wire verdicts are the
// analyzer's over its own spans.
func TestTraceReadsRacePosts(t *testing.T) {
	cfg := testConfig()
	cfg.FlightRecorderSize, cfg.FlightKeep, cfg.MaxConcurrentRuns = 4, 1, 4
	_, ts := newTestServer(t, cfg)
	if _, _, _, err := postRun(ts, miniatureRequest()); err != nil {
		t.Fatal(err)
	}
	var (
		mu       sync.Mutex
		ids      []string
		answered = map[string]float64{}
		read     []*obs.RunTrace
	)
	var posters sync.WaitGroup
	for c := 0; c < 4; c++ {
		posters.Add(1)
		go func(c int) {
			defer posters.Done()
			for i := 0; i < 6; i++ {
				req := miniatureRequest()
				req.Seed = int64(c*6 + i)
				rr, _, _, err := postRun(ts, req)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ids = append(ids, rr.RunID)
				answered[rr.RunID] = rr.OverlapEfficiency
				mu.Unlock()
			}
		}(c)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			format := []string{"", "?format=chrome"}[r]
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				recent := slices.Clone(ids[max(0, len(ids)-4):])
				mu.Unlock()
				for _, id := range recent {
					resp, err := http.Get(ts.URL + "/v1/runs/" + id + format)
					if err != nil {
						t.Error(err)
						return
					}
					data, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode == http.StatusNotFound {
						continue // evicted since it was listed
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s%s: status %d: %s", id, format, resp.StatusCode, data)
						return
					}
					if format != "" {
						if !json.Valid(data) {
							t.Errorf("GET %s%s: not JSON", id, format)
						}
						continue
					}
					trace, err := obs.DecodeRunTrace(data)
					if err != nil {
						t.Errorf("GET %s: %v", id, err)
						return
					}
					mu.Lock()
					if trace.ID != id || trace.OverlapEfficiency != answered[id] {
						t.Errorf("GET %s read run %s at efficiency %v; its POST answered %v", id, trace.ID, trace.OverlapEfficiency, answered[id])
					}
					if len(read) < 16 {
						read = append(read, trace)
					}
					mu.Unlock()
				}
			}
		}(r)
	}
	posters.Wait()
	close(done)
	readers.Wait()
	if len(read) == 0 {
		t.Fatal("no GET found its run")
	}
	for _, trace := range read {
		checkWireVerdicts(t, trace)
	}
}
