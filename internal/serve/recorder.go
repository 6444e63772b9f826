package serve

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"overlap/internal/obs"
	"overlap/internal/runtime"
)

// flightRecorder is the daemon's bounded in-memory trace store: the
// last N runs in a ring, plus a kept set of the K most interesting runs
// (slowest or failed) that survive ring wraparound. A run is stored as
// it came off the executor — the span slab, plus the header computed
// from it — and becomes a trace artifact only when get is asked for it:
// every request records one, few are ever read. The answer to "show
// me the trace of the slow run from 30 seconds ago" without unbounded
// memory: steady-state traffic cycles through the ring, while the runs
// an operator actually asks about — the outliers and the failures —
// stay addressable until something more interesting displaces them.
type flightRecorder struct {
	mu   sync.Mutex
	size int // ring capacity
	keep int // kept-set capacity

	seq     int64
	ring    []string // run IDs, oldest first once full (circular via next)
	next    int
	entries map[string]*recordedRun
	kept    map[string]struct{}
}

// recordedRun is one stored run with its recording order and its
// keep-worthiness score: head is the trace artifact less its spans,
// spans the stream the header's attribution was computed from.
type recordedRun struct {
	seq   int64
	score float64
	head  *obs.RunTrace
	spans []obs.Span
}

// keepScore ranks how much a trace deserves to outlive the ring:
// failures always outrank successes (a crashed run is the one the
// operator greps for), and among equals, slower runs win.
func keepScore(t *obs.RunTrace) float64 {
	s := t.TotalMS
	if t.StepMS > s {
		s = t.StepMS
	}
	if t.Status == obs.StatusFailed {
		s += 1e12
	}
	return s
}

func newFlightRecorder(size, keep int) *flightRecorder {
	return &flightRecorder{
		size:    size,
		keep:    keep,
		ring:    make([]string, 0, size),
		entries: make(map[string]*recordedRun),
		kept:    make(map[string]struct{}),
	}
}

// record stores one run: its header and its spans, neither of which the
// caller may touch afterwards — the recorder owns the span slab, and
// hands it back to the runtime's span free list when it evicts the run
// for good. When the ring wraps, the overwritten run either moves to
// the kept set (it outranks the weakest keeper, or a keep slot is free)
// or is evicted for good — eviction is counted in svTraceEvictions so
// memory pressure is visible in /metrics.
func (fr *flightRecorder) record(t *obs.RunTrace, spans []obs.Span) {
	if t == nil || t.ID == "" {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()

	fr.seq++
	entry := &recordedRun{seq: fr.seq, score: keepScore(t), head: t, spans: spans}

	if old, dup := fr.entries[t.ID]; dup {
		// Same ID recorded twice (caller retry): replace in place, the
		// ring slot it already occupies stays valid.
		entry.seq = old.seq
		fr.entries[t.ID] = entry
		svTracesRecorded.Inc()
		return
	}

	if len(fr.ring) < fr.size {
		fr.ring = append(fr.ring, t.ID)
	} else {
		victim := fr.ring[fr.next]
		fr.ring[fr.next] = t.ID
		fr.next = (fr.next + 1) % fr.size
		fr.retire(victim)
	}
	fr.entries[t.ID] = entry
	svTracesRecorded.Inc()
}

// retire decides a ring-overwritten run's fate: kept or evicted.
// Called with fr.mu held.
func (fr *flightRecorder) retire(id string) {
	e, ok := fr.entries[id]
	if !ok {
		return
	}
	if fr.keep > 0 && len(fr.kept) < fr.keep {
		fr.kept[id] = struct{}{}
		return
	}
	// Kept set full: the victim displaces the weakest keeper only when
	// it is strictly more interesting.
	weakestID, weakest := "", (*recordedRun)(nil)
	for kid := range fr.kept {
		ke := fr.entries[kid]
		if weakest == nil || ke.score < weakest.score ||
			(ke.score == weakest.score && ke.seq < weakest.seq) {
			weakestID, weakest = kid, ke
		}
	}
	if weakest != nil && e.score > weakest.score {
		delete(fr.kept, weakestID)
		fr.evict(weakestID, weakest)
		fr.kept[id] = struct{}{}
	} else {
		fr.evict(id, e)
	}
}

// evict drops a run for good and hands its span slab back for a later
// run to record into: no get can reach it any more, and get copies what
// it reads under the lock. Called with fr.mu held.
func (fr *flightRecorder) evict(id string, e *recordedRun) {
	delete(fr.entries, id)
	runtime.ReleaseTrace(e.spans)
	svTraceEvictions.Inc()
}

// get builds the trace artifact of a stored run, nil when the ID is
// unknown (evicted or never recorded). The artifact copies the spans,
// under the lock: once the lock is released an eviction may hand the
// slab to another run.
func (fr *flightRecorder) get(id string) *obs.RunTrace {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	e, ok := fr.entries[id]
	if !ok {
		return nil
	}
	return e.head.WithSpans(e.spans)
}

// RunSummary is one flight-recorder entry as /v1/runs lists it.
type RunSummary struct {
	ID       string  `json:"id"`
	Scenario string  `json:"scenario"`
	Model    string  `json:"model,omitempty"`
	Status   string  `json:"status"`
	Start    string  `json:"start,omitempty"`
	StepMS   float64 `json:"step_ms,omitempty"`
	TotalMS  float64 `json:"total_ms,omitempty"`
	Kept     bool    `json:"kept,omitempty"`
}

// list returns every recorded run, newest first.
func (fr *flightRecorder) list() []RunSummary {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	all := make([]*recordedRun, 0, len(fr.entries))
	for _, e := range fr.entries {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	out := make([]RunSummary, 0, len(all))
	for _, e := range all {
		t := e.head
		_, kept := fr.kept[t.ID]
		out = append(out, RunSummary{
			ID:       t.ID,
			Scenario: t.Scenario,
			Model:    t.Model,
			Status:   t.Status,
			Start:    t.Start,
			StepMS:   t.StepMS,
			TotalMS:  t.TotalMS,
			Kept:     kept,
		})
	}
	return out
}

// scenarioLabel normalizes a request scenario onto the trace artifact's
// vocabulary: forward layer steps are "run", training steps "train".
func scenarioLabel(s string) string {
	if s == "train" {
		return "train"
	}
	return "run"
}

// newHeader assembles one served run's trace artifact less its spans:
// the attribution of the span stream the run produced (none when it
// failed), the serve-path stage breakdown and the request metadata.
func (s *Server) newHeader(runID string, req *Request, key string, devices int, start time.Time, timing TimingMS, spans []obs.Span) *obs.RunTrace {
	head := obs.NewRunHeader(runID, scenarioLabel(req.Scenario), obs.Attribute(spans))
	head.Model = req.Model
	head.Fingerprint = key
	head.Devices = devices
	head.Start = start.UTC().Format(time.RFC3339Nano)
	head.TotalMS = timing.Total
	cursor := 0.0
	for _, st := range []struct {
		name string
		dur  float64
	}{{"plan", timing.Plan}, {"admission", timing.Admission}, {"run", timing.Run}} {
		head.Stages = append(head.Stages, obs.RunStage{Name: st.name, StartMS: cursor, DurMS: st.dur})
		cursor += st.dur
	}
	return head
}

// record stores a run — its header and the span slab its executor
// recorded into — in the flight recorder, which owns the slab from then
// on. The trace artifact is built here only for TraceDir's durable JSON
// twin, before the recorder takes the slab; otherwise when a GET asks.
func (s *Server) record(head *obs.RunTrace, spans []obs.Span) {
	if s.cfg.TraceDir != "" {
		data, err := head.WithSpans(spans).EncodeJSON()
		if err == nil {
			err = os.WriteFile(filepath.Join(s.cfg.TraceDir, head.ID+".json"), data, 0o644)
		}
		if err != nil {
			obs.Log().Error("serve.trace_write", "run_id", head.ID, "error", err.Error())
		}
	}
	s.recorder.record(head, spans)
}

// handleRuns serves GET /v1/runs: the flight recorder's contents,
// newest first.
func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs := s.recorder.list()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"runs": runs,
		"size": len(runs),
	})
}

// runIDPattern is the exact shape obs.NewRunID mints: "r-" plus 16 hex
// digits. The run id from the URL is attacker-controlled and ends up in
// a TraceDir filesystem path below, so anything else — including "..",
// separators in any encoding, or oversized ids — is rejected before any
// filepath.Join ever sees it.
var runIDPattern = regexp.MustCompile(`^r-[0-9a-f]{16}$`)

// handleRunByID serves GET /v1/runs/{id}?format=json|chrome: the full
// trace artifact of one recorded run, as stable JSON (default) or as a
// Chrome trace file loadable in Perfetto. Runs evicted from the
// in-memory recorder are re-read from their durable TraceDir twin when
// one is configured.
func (s *Server) handleRunByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/runs/")
	if !runIDPattern.MatchString(id) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: no run id in %s", r.URL.Path))
		return
	}
	trace := s.recorder.get(id)
	if trace == nil && s.cfg.TraceDir != "" {
		if data, err := os.ReadFile(filepath.Join(s.cfg.TraceDir, id+".json")); err == nil {
			trace, _ = obs.DecodeRunTrace(data) // nil when the twin does not decode
		}
	}
	if trace == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: run %s is not in the flight recorder (evicted or never recorded)", id))
		return
	}
	encode := trace.EncodeJSON
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
	case "chrome":
		encode = trace.ChromeTrace
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown trace format %q (want json or chrome)", format))
		return
	}
	data, err := encode()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBytes(w, data)
}
