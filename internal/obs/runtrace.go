package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// RunTraceVersion is the schema version of the serialized RunTrace
// artifact. Decoding rejects any other version; extend the schema by
// adding fields, never by repurposing existing ones (a golden test pins
// the encoding).
const RunTraceVersion = 1

// Run statuses.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// Wire-span verdicts: where one wire span's instruction's wire time
// went, per the attribution analyzer. A span is stamped with its
// *instruction's* verdict (attribution aggregates a collective's ring
// steps across devices), so every span of one decomposed collective
// carries the same verdict — the per-op Figure 9 call, readable in
// place on the timeline.
const (
	VerdictHidden  = "hidden"
	VerdictPartial = "partially-hidden"
	VerdictExposed = "exposed"
)

// NewRunID returns a fresh, unique run identity ("r-" + 16 hex chars).
// Every execution path that lacks a caller-supplied ID mints one here,
// so a run's spans, metrics, structured logs, and failure all correlate
// under a single key.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// recognizable constant rather than aborting telemetry.
		return "r-0000000000000000"
	}
	return "r-" + hex.EncodeToString(b[:])
}

// RunTrace is the run-scoped trace artifact: one execution's identity,
// the serve-path stages that led to it (plan → admission → run), the
// per-device/per-instruction/per-transfer spans the executor
// measured — wire spans stamped with their attribution verdict — and
// the per-collective attribution report. It serializes to stable JSON
// (EncodeJSON/DecodeRunTrace) and to a Chrome trace (ChromeTrace) from
// this one code path, so the daemon's flight recorder, the CLI's
// -trace-out files, and overlap trace all speak the same artifact.
type RunTrace struct {
	Version  int    `json:"version"`
	ID       string `json:"id"`
	Scenario string `json:"scenario"`

	// Model, Fingerprint, and Devices identify what ran: the workload
	// name, the plan-cache fingerprint it compiled under, and the SPMD
	// ring size.
	Model       string `json:"model,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Devices     int    `json:"devices,omitempty"`

	// Start is the wall-clock start in RFC3339Nano, informational only
	// (span times are run-relative).
	Start string `json:"start,omitempty"`

	// Status is "ok" or "failed"; Error attributes a failure (device,
	// instruction, phase, injected fault) when Status is "failed".
	Status string         `json:"status"`
	Error  *RunTraceError `json:"error,omitempty"`

	// Stages are the coarse serve-path intervals of this run's request
	// (plan, admission, run), in milliseconds from request start.
	Stages []RunStage `json:"stages,omitempty"`

	// Spans are the fine-grained executor spans, milliseconds from run
	// start; wire spans carry their attribution verdict.
	Spans []RunSpan `json:"spans,omitempty"`

	// Attribution is the per-collective hidden/exposed breakdown of the
	// span stream — the report the span verdicts are derived from.
	Attribution *AttributionReport `json:"attribution,omitempty"`

	// StepMS is the measured device step time; TotalMS the end-to-end
	// request latency (equals StepMS-ish for CLI runs).
	StepMS            float64 `json:"step_ms,omitempty"`
	TotalMS           float64 `json:"total_ms,omitempty"`
	OverlapEfficiency float64 `json:"overlap_efficiency,omitempty"`
}

// RunTraceError is a failed run's structured attribution, mirroring the
// runtime's RunError fields without importing it (obs is a leaf).
type RunTraceError struct {
	Device      int    `json:"device"`
	Instruction string `json:"instruction,omitempty"`
	Phase       string `json:"phase,omitempty"`
	Fault       string `json:"fault,omitempty"`
	Cause       string `json:"cause"`
}

// RunStage is one coarse serve-path interval of a run's request.
type RunStage struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// RunSpan is one executor span in the artifact: a compute-track event
// or a transfer-engine event, with wire spans stamped by the
// attribution analyzer.
type RunSpan struct {
	Device  int     `json:"device"`
	Track   int     `json:"track"`
	Cat     string  `json:"cat"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`

	// Verdict, HiddenFraction, and Under appear on wire spans only
	// (transfer-track transfers and blocking collective waits): the
	// instruction-level attribution verdict, its hidden fraction, and
	// the compute instructions that did the hiding, largest share
	// first.
	Verdict        string   `json:"verdict,omitempty"`
	HiddenFraction float64  `json:"hidden_fraction,omitempty"`
	Under          []string `json:"under,omitempty"`
}

// SpanLess is the order of a span stream at rest: by device, track,
// start, then name. The runtime records Result.Trace in it and
// WithSpans encodes in it, so a stream that came from the runtime is
// never sorted.
func SpanLess(a, b Span) bool {
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	if a.Track != b.Track {
		return a.Track < b.Track
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Name < b.Name
}

// NewRunTrace assembles the artifact from an execution's span stream:
// it runs the attribution analyzer once, stamps every wire span with
// its instruction's verdict, and embeds the full report. Metadata
// fields (Model, Fingerprint, Stages, timings) are the caller's to fill
// in. A caller that keeps a run's spans and wants the artifact only if
// somebody asks takes the two halves separately: NewRunHeader with
// OverlapEfficiency(spans) when the run ends, WithAttribution with
// Attribute(spans) when it is asked.
func NewRunTrace(id, scenario string, spans []Span) *RunTrace {
	rep := Attribute(spans)
	return NewRunHeader(id, scenario, rep.OverlapEfficiency()).WithAttribution(rep, spans)
}

// NewRunHeader is the artifact without its spans and without its
// attribution report: identity, status, and the run's overlap
// efficiency — all an answer needs, and OverlapEfficiency computes it
// without building the report.
func NewRunHeader(id, scenario string, overlapEfficiency float64) *RunTrace {
	return &RunTrace{
		Version:           RunTraceVersion,
		ID:                id,
		Scenario:          scenario,
		Status:            StatusOK,
		OverlapEfficiency: overlapEfficiency,
	}
}

// WithAttribution returns a copy of the header t carrying rep — the
// attribution report of spans, embedded when it has a collective or a
// stall — and the span stream, every wire span stamped with its
// instruction's verdict. Spans are encoded in SpanLess order so the
// encoding is deterministic regardless of collection order: a stream
// already in it is read in place, any other (the simulator's, a
// hand-built one) is copied and sorted first — the caller's slice is
// never reordered, and t is not written.
func (t *RunTrace) WithAttribution(rep AttributionReport, spans []Span) *RunTrace {
	// What a wire span is stamped with is a property of its collective:
	// computed once per collective, the Under list shared by its spans.
	type stamp struct {
		verdict string
		hidden  float64
		under   []string
	}
	out := *t
	var stamps map[string]stamp
	if len(rep.Collectives) > 0 || rep.StallSeconds > 0 {
		out.Attribution = &rep
		stamps = make(map[string]stamp, len(rep.Collectives))
		for _, a := range rep.Collectives {
			st := stamp{verdict: verdictOf(a), hidden: a.HiddenFraction()}
			if n := min(len(a.Under), 3); n > 0 {
				st.under = make([]string, n)
				for i := range st.under {
					st.under[i] = a.Under[i].Name
				}
			}
			stamps[a.Name] = st
		}
	}

	less := func(i, j int) bool { return SpanLess(spans[i], spans[j]) }
	if !sort.SliceIsSorted(spans, less) {
		spans = append([]Span(nil), spans...)
		sort.SliceStable(spans, less)
	}

	if len(spans) > 0 {
		out.Spans = make([]RunSpan, len(spans))
	}
	for i, s := range spans {
		rs := &out.Spans[i]
		*rs = RunSpan{
			Device:  s.Device,
			Track:   s.Track,
			Cat:     s.Cat,
			Name:    s.Name,
			StartMS: s.Start * 1e3,
			DurMS:   s.Dur * 1e3,
		}
		if isWireSpan(s) {
			if st, ok := stamps[s.Name]; ok {
				rs.Verdict, rs.HiddenFraction, rs.Under = st.verdict, st.hidden, st.under
			}
		}
	}
	return &out
}

// isWireSpan reports whether a span represents wire occupancy the
// analyzer attributes: an asynchronous transfer on the transfer track,
// or a blocking collective wait on the compute track.
func isWireSpan(s Span) bool {
	return (s.Track == TrackTransfer && s.Cat == CatTransfer) ||
		(s.Track == TrackCompute && s.Cat == CatCollective)
}

// verdictOf maps one collective's attribution onto its span verdict.
func verdictOf(a Attribution) string {
	switch {
	case a.Blocking || a.Hidden == 0:
		return VerdictExposed
	case a.Exposed <= 1e-12*a.Wire:
		return VerdictHidden
	default:
		return VerdictPartial
	}
}

// SetError marks the trace failed with the given attribution.
func (t *RunTrace) SetError(e RunTraceError) {
	t.Status = StatusFailed
	t.Error = &e
}

// EncodeJSON renders the artifact as stable, indented JSON (trailing
// newline included): field order is fixed by the struct, spans are
// pre-sorted, so encoding the same trace twice is byte-identical.
func (t *RunTrace) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return nil, fmt.Errorf("obs: encoding run trace: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeRunTrace parses a serialized artifact, rejecting version
// mismatches, traces without an ID, and spans or stages no executor can
// have recorded (negative or non-finite times, a negative device, a
// track other than compute/transfer) — the file is outside input, and
// the renderers index by what it says.
func DecodeRunTrace(data []byte) (*RunTrace, error) {
	var t RunTrace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("obs: run trace does not parse: %w", err)
	}
	if t.Version != RunTraceVersion {
		return nil, fmt.Errorf("obs: run trace version %d (want %d)", t.Version, RunTraceVersion)
	}
	if t.ID == "" {
		return nil, fmt.Errorf("obs: run trace has no id")
	}
	for i, st := range t.Stages {
		if !validInterval(st.StartMS, st.DurMS) {
			return nil, fmt.Errorf("obs: run trace stage %d (%q): start_ms %v, dur_ms %v out of range", i, st.Name, st.StartMS, st.DurMS)
		}
	}
	for i, s := range t.Spans {
		switch {
		case !validInterval(s.StartMS, s.DurMS):
			return nil, fmt.Errorf("obs: run trace span %d (%q): start_ms %v, dur_ms %v out of range", i, s.Name, s.StartMS, s.DurMS)
		case s.Device < 0:
			return nil, fmt.Errorf("obs: run trace span %d (%q): device %d", i, s.Name, s.Device)
		case s.Track != TrackCompute && s.Track != TrackTransfer:
			return nil, fmt.Errorf("obs: run trace span %d (%q): track %d", i, s.Name, s.Track)
		}
	}
	return &t, nil
}

// validInterval reports whether a start/duration pair is non-negative
// with a finite end (NaN fails the comparisons).
func validInterval(start, dur float64) bool {
	return start >= 0 && dur >= 0 && !math.IsInf(start+dur, 1)
}

// chromeEvent is one complete ("X") event in the Chrome trace format,
// with an args map carrying the run-scoped annotations (verdict, run
// id). Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeStagePID is the pid the serve-path stage spans render under in
// the Chrome export — a pseudo-process above the device rows.
const ChromeStagePID = -1

// ChromeTrace renders the artifact as a Chrome trace file (loadable in
// Perfetto / chrome://tracing): device spans on their pid/tid tracks
// with wire spans annotated by verdict and hiding instructions, the
// serve-path stages as a pseudo-process, and the run identity in the
// file metadata. The output is deterministic: encoding the same trace
// twice is byte-identical (args maps marshal with sorted keys).
func (t *RunTrace) ChromeTrace() ([]byte, error) {
	events := make([]chromeEvent, 0, len(t.Spans)+len(t.Stages))
	for _, st := range t.Stages {
		events = append(events, chromeEvent{
			Name: st.Name, Cat: "stage", Ph: "X",
			TS: st.StartMS * 1e3, Dur: st.DurMS * 1e3,
			PID: ChromeStagePID, TID: 0,
		})
	}
	for _, s := range t.Spans {
		ev := chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: s.StartMS * 1e3, Dur: s.DurMS * 1e3,
			PID: s.Device, TID: s.Track,
		}
		if s.Verdict != "" {
			ev.Args = map[string]any{
				"verdict":         s.Verdict,
				"hidden_fraction": s.HiddenFraction,
			}
			if len(s.Under) > 0 {
				ev.Args["hidden_under"] = s.Under
			}
		}
		events = append(events, ev)
	}
	meta := map[string]any{
		"run_id":   t.ID,
		"scenario": t.Scenario,
		"status":   t.Status,
	}
	if t.Model != "" {
		meta["model"] = t.Model
	}
	if t.Fingerprint != "" {
		meta["fingerprint"] = t.Fingerprint
	}
	data, err := json.MarshalIndent(struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata"`
	}{events, meta}, "", " ")
	if err != nil {
		return nil, fmt.Errorf("obs: encoding chrome trace: %w", err)
	}
	return append(data, '\n'), nil
}
