package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// traceSpans is the fixed span stream the artifact tests build from:
// one device with two partial einsums, a fully hidden transfer, a
// partially hidden transfer, a blocking all-gather, and a stall on the
// second device.
func traceSpans() []Span {
	return []Span{
		{Device: 0, Track: TrackCompute, Cat: CatCompute, Name: "einsum.p0", Start: 0, Dur: 0.010},
		{Device: 0, Track: TrackCompute, Cat: CatCompute, Name: "einsum.p1", Start: 0.010, Dur: 0.005},
		{Device: 0, Track: TrackTransfer, Cat: CatTransfer, Name: "collective-permute-start.1", Start: 0, Dur: 0.008},
		{Device: 0, Track: TrackTransfer, Cat: CatTransfer, Name: "collective-permute-start.2", Start: 0.012, Dur: 0.008},
		{Device: 0, Track: TrackCompute, Cat: CatCollective, Name: "all-gather.3", Start: 0.020, Dur: 0.004},
		{Device: 1, Track: TrackCompute, Cat: CatStall, Name: "stall.collective-permute-done.4", Start: 0.002, Dur: 0.004},
	}
}

func goldenTrace() *RunTrace {
	t := NewRunTrace("r-00000000000000ab", "run", traceSpans())
	t.Model = "gpt_32b-mini"
	t.Fingerprint = "fp-1234"
	t.Devices = 2
	t.Stages = []RunStage{
		{Name: "queue", StartMS: 0, DurMS: 0.5},
		{Name: "plan", StartMS: 0.5, DurMS: 1.25},
		{Name: "admission", StartMS: 1.75, DurMS: 0.25},
		{Name: "run", StartMS: 2, DurMS: 24},
	}
	t.StepMS = 24
	t.TotalMS = 26
	return t
}

// goldenJSON pins the RunTrace schema: any field rename, reorder, or
// type change breaks this byte-for-byte comparison. Extend the schema
// by adding fields (and regenerating), never by repurposing these.
const goldenJSON = `{
 "version": 1,
 "id": "r-00000000000000ab",
 "scenario": "run",
 "model": "gpt_32b-mini",
 "fingerprint": "fp-1234",
 "devices": 2,
 "status": "ok",
 "stages": [
  {
   "name": "queue",
   "start_ms": 0,
   "dur_ms": 0.5
  },
  {
   "name": "plan",
   "start_ms": 0.5,
   "dur_ms": 1.25
  },
  {
   "name": "admission",
   "start_ms": 1.75,
   "dur_ms": 0.25
  },
  {
   "name": "run",
   "start_ms": 2,
   "dur_ms": 24
  }
 ],
 "spans": [
  {
   "device": 0,
   "track": 0,
   "cat": "compute",
   "name": "einsum.p0",
   "start_ms": 0,
   "dur_ms": 10
  },
  {
   "device": 0,
   "track": 0,
   "cat": "compute",
   "name": "einsum.p1",
   "start_ms": 10,
   "dur_ms": 5
  },
  {
   "device": 0,
   "track": 0,
   "cat": "collective",
   "name": "all-gather.3",
   "start_ms": 20,
   "dur_ms": 4,
   "verdict": "exposed"
  },
  {
   "device": 0,
   "track": 1,
   "cat": "transfer",
   "name": "collective-permute-start.1",
   "start_ms": 0,
   "dur_ms": 8,
   "verdict": "hidden",
   "hidden_fraction": 1,
   "under": [
    "einsum.p0"
   ]
  },
  {
   "device": 0,
   "track": 1,
   "cat": "transfer",
   "name": "collective-permute-start.2",
   "start_ms": 12,
   "dur_ms": 8,
   "verdict": "partially-hidden",
   "hidden_fraction": 0.3749999999999999,
   "under": [
    "einsum.p1"
   ]
  },
  {
   "device": 1,
   "track": 0,
   "cat": "stall",
   "name": "stall.collective-permute-done.4",
   "start_ms": 2,
   "dur_ms": 4
  }
 ],
 "attribution": {
  "collectives": [
   {
    "name": "all-gather.3",
    "blocking": true,
    "wire": 0.004,
    "hidden": 0,
    "exposed": 0.004
   },
   {
    "name": "collective-permute-start.1",
    "blocking": false,
    "wire": 0.008,
    "hidden": 0.008,
    "exposed": 0,
    "under": [
     {
      "name": "einsum.p0",
      "seconds": 0.008
     }
    ]
   },
   {
    "name": "collective-permute-start.2",
    "blocking": false,
    "wire": 0.008,
    "hidden": 0.002999999999999999,
    "exposed": 0.005000000000000001,
    "under": [
     {
      "name": "einsum.p1",
      "seconds": 0.002999999999999999
     }
    ]
   }
  ],
  "total_wire": 0.02,
  "total_hidden": 0.011,
  "stall_seconds": 0.004
 },
 "step_ms": 24,
 "total_ms": 26,
 "overlap_efficiency": 0.5499999999999999
}
`

func TestRunTraceGoldenJSON(t *testing.T) {
	data, err := goldenTrace().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenJSON {
		t.Errorf("RunTrace encoding drifted from the pinned schema.\ngot:\n%s\nwant:\n%s", data, goldenJSON)
	}
}

func TestRunTraceRoundTrip(t *testing.T) {
	orig := goldenTrace()
	data, err := orig.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRunTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("decode + re-encode is not byte-identical")
	}
}

func TestRunTraceChromeDeterminism(t *testing.T) {
	tr := goldenTrace()
	first, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	second, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("encoding the same trace twice is not byte-identical")
	}

	// The Chrome export must also survive the JSON round trip unchanged:
	// both exports come from one artifact, not parallel code paths.
	data, err := tr.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRunTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	third, err := back.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, third) {
		t.Error("Chrome export differs after a JSON round trip")
	}

	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(first, &parsed); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if got := parsed.Metadata["run_id"]; got != "r-00000000000000ab" {
		t.Errorf("metadata run_id = %v", got)
	}
	wantEvents := len(tr.Spans) + len(tr.Stages)
	if len(parsed.TraceEvents) != wantEvents {
		t.Errorf("chrome trace has %d events, want %d", len(parsed.TraceEvents), wantEvents)
	}
}

// TestRunTraceVerdictsMatchAttribution asserts the per-span stamps are
// exactly the analyzer's conclusions: every wire span's verdict and
// hidden fraction re-derive from Attribute over the same spans.
func TestRunTraceVerdictsMatchAttribution(t *testing.T) {
	spans := traceSpans()
	tr := NewRunTrace("r-0000000000000001", "run", spans)
	rep := Attribute(spans)
	byName := map[string]Attribution{}
	for _, a := range rep.Collectives {
		byName[a.Name] = a
	}
	wireSpans := 0
	for _, s := range tr.Spans {
		isWire := (s.Track == TrackTransfer && s.Cat == CatTransfer) ||
			(s.Track == TrackCompute && s.Cat == CatCollective)
		if !isWire {
			if s.Verdict != "" {
				t.Errorf("%s: non-wire span carries verdict %q", s.Name, s.Verdict)
			}
			continue
		}
		wireSpans++
		a, ok := byName[s.Name]
		if !ok {
			t.Errorf("%s: wire span missing from attribution report", s.Name)
			continue
		}
		want := VerdictPartial
		switch {
		case a.Blocking || a.Hidden == 0:
			want = VerdictExposed
		case a.Exposed <= 1e-12*a.Wire:
			want = VerdictHidden
		}
		if s.Verdict != want {
			t.Errorf("%s: verdict %q, attribution says %q", s.Name, s.Verdict, want)
		}
		if s.HiddenFraction != a.HiddenFraction() {
			t.Errorf("%s: hidden fraction %v, attribution says %v", s.Name, s.HiddenFraction, a.HiddenFraction())
		}
	}
	if wireSpans != 3 {
		t.Fatalf("expected 3 wire spans in the fixture, saw %d", wireSpans)
	}
	if tr.OverlapEfficiency != rep.OverlapEfficiency() {
		t.Errorf("trace efficiency %v, report %v", tr.OverlapEfficiency, rep.OverlapEfficiency())
	}
}

func TestDecodeRunTraceRejects(t *testing.T) {
	if _, err := DecodeRunTrace([]byte(`{"version": 99, "id": "r-1", "status": "ok"}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
	if _, err := DecodeRunTrace([]byte(`{"version": 1, "status": "ok"}`)); err == nil ||
		!strings.Contains(err.Error(), "id") {
		t.Errorf("missing id not rejected: %v", err)
	}
	if _, err := DecodeRunTrace([]byte(`not json`)); err == nil {
		t.Error("garbage not rejected")
	}
}

// TestRunTraceHostileFiles feeds the reader artifacts no executor can
// have written. Each used to reach the timeline renderer and index out
// of range (or size a row table from the file's device number); now the
// decoder rejects what it can name, and the view survives the rest.
func TestRunTraceHostileFiles(t *testing.T) {
	file := func(span string) string {
		return `{"version": 1, "id": "r-1", "status": "ok", "spans": [` + span + `]}`
	}
	for _, tc := range []struct {
		name, data, wantErr string
	}{
		{"negative device", file(`{"device": -1, "track": 0, "cat": "compute", "name": "e", "start_ms": 0, "dur_ms": 1}`), "device -1"},
		{"negative start", file(`{"device": 0, "track": 0, "cat": "compute", "name": "e", "start_ms": -5, "dur_ms": 1}`), "start_ms -5"},
		{"negative duration", file(`{"device": 0, "track": 0, "cat": "compute", "name": "e", "start_ms": 0, "dur_ms": -1}`), "dur_ms -1"},
		{"unknown track", file(`{"device": 0, "track": 7, "cat": "compute", "name": "e", "start_ms": 0, "dur_ms": 1}`), "track 7"},
		{"negative stage", `{"version": 1, "id": "r-1", "status": "ok", "stages": [{"name": "queue", "start_ms": -1, "dur_ms": 1}]}`, "stage 0"},
		// A huge device number is a legal span; the view must not size
		// anything by it.
		{"huge device", file(`{"device": 1000000000, "track": 1, "cat": "transfer", "name": "cp", "start_ms": 0, "dur_ms": 1}`), ""},
	} {
		tr, err := DecodeRunTrace([]byte(tc.data))
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: decode error %v, want one naming %q", tc.name, err, tc.wantErr)
			}
		} else if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		// The view must hold up even when handed the file undecoded.
		var raw RunTrace
		if err := json.Unmarshal([]byte(tc.data), &raw); err != nil {
			t.Fatalf("%s: fixture does not parse: %v", tc.name, err)
		}
		for _, view := range []*RunTrace{tr, &raw} {
			if view == nil {
				continue
			}
			if out := view.Timeline(40); strings.Count(out, "\n") > 2+2*len(view.Spans) {
				t.Errorf("%s: timeline drew more rows than spans:\n%s", tc.name, out)
			}
		}
	}
}

// TestTimelineEmpty: a trace with no spans renders a placeholder, not
// a zero-width grid.
func TestTimelineEmpty(t *testing.T) {
	if out := NewRunTrace("r-1", "run", nil).Timeline(80); !strings.Contains(out, "no events") {
		t.Fatalf("empty timeline = %q", out)
	}
}

func TestRunTraceSetError(t *testing.T) {
	tr := NewRunTrace("r-0000000000000002", "run", nil)
	if tr.Status != StatusOK {
		t.Fatalf("fresh trace status %q", tr.Status)
	}
	tr.SetError(RunTraceError{Device: 2, Instruction: "collective-permute-done.9", Phase: "receive", Cause: "injected"})
	if tr.Status != StatusFailed || tr.Error == nil || tr.Error.Device != 2 {
		t.Errorf("SetError did not mark the trace failed: %+v", tr)
	}
}

func TestNewRunIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRunID()
		if !strings.HasPrefix(id, "r-") || len(id) != 18 {
			t.Fatalf("malformed run id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate run id %q", id)
		}
		seen[id] = true
	}
}

// FuzzDecodeRunTrace: a run-trace file is outside input — overlap
// trace -trace-in reads one, the daemon re-reads its TraceDir twins.
// Whatever the bytes, DecodeRunTrace returns an artifact or an error; what it
// returns encodes, decodes again and re-encodes to the same bytes, and
// renders as a Chrome trace or fails with an error (times near the
// float range overflow the microsecond scale), never a panic. The seeds
// under testdata/fuzz are the two goldens (this package's and the
// daemon's GET), a failed run, and one file per rule the decoder
// enforces; plain go test replays them.
func FuzzDecodeRunTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeRunTrace(data)
		if err != nil {
			return
		}
		first, err := tr.EncodeJSON()
		if err != nil {
			t.Fatalf("a decoded trace does not encode: %v", err)
		}
		back, err := DecodeRunTrace(first)
		if err != nil {
			t.Fatalf("an encoded trace does not decode: %v\n%s", err, first)
		}
		second, err := back.EncodeJSON()
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("encode → decode → encode is not a fixed point (%v):\n%s\n%s", err, first, second)
		}
		if chrome, err := tr.ChromeTrace(); err == nil && !json.Valid(chrome) {
			t.Fatalf("the Chrome export is not JSON:\n%s", chrome)
		}
	})
}
