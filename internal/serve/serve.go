// Package serve turns the overlap pipeline into a long-running service:
// a daemon that accepts compile, tune, and run jobs over HTTP/JSON and
// answers them from a compiled-plan cache instead of re-running the
// partition → decompose → schedule pipeline per invocation.
//
// The pipeline's decisions are pure functions of the (program, machine
// spec, device count, host parallelism) fingerprint — exactly the
// property a serving system exploits. Plans are priced on the TPU-v4
// spec (machine.TPUv4), as every executed CLI run is. The daemon layers
// three mechanisms on that purity:
//
//   - a compiled Plan artifact (autotune.Plan): the transformed,
//     scheduled program frozen to text with its knobs, calibration and
//     clock (the wire scale every served run of it injects),
//     held in an in-memory LRU keyed by the autotune fingerprint, the
//     memory tier of a plan store whose disk tier is a directory of
//     plan files. A plan reaches the runtime the same way whether it
//     came from a search or from that directory: parsed, then
//     runtime.Compile. A cache entry holds
//     everything that is a function of the plan — the artifact, its
//     parsed computation, the runtime.Executable that computation was
//     validated and lowered into, and the request shapes known to
//     resolve to it — so the steady-state run path is two map lookups
//     plus (*Executable).Run: no graph construction, no compilation, no
//     lowering;
//   - a singleflight over compiles: a request whose plan is not cached
//     joins the compile already in flight for its fingerprint, or
//     starts it, so N simultaneous callers with identical programs
//     share exactly one compile (singleflight.go);
//   - an admission-control semaphore bounding concurrent runtime
//     executions, so served runs share the process-wide einsum kernel
//     worker pool instead of oversubscribing it.
//
// A run request flows lookup → singleflight → admission → run: the plan
// cache answers it, or it waits on its fingerprint's one compile; then
// it waits for an admission slot and runs. MaxPending bounds the
// requests anywhere in that flow; one more is answered 503.
//
// Failures degrade, never cascade: a run that fails (injected fault,
// deadline) returns the structured *runtime.RunError as JSON with a
// 5xx, the daemon keeps serving, and the plan cache is untouched — a
// failed run says nothing about the plan that produced it.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"overlap/internal/autotune"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
	"overlap/internal/train"
)

// Config tunes the daemon. The zero value serves with sane defaults.
type Config struct {
	// MaxPending bounds the /v1/run and /v1/compile requests between
	// decode and response — waiting on a compile or an admission slot,
	// running, answering; one more is rejected with 503 (default 256).
	MaxPending int

	// MaxConcurrentRuns bounds runtime executions holding the kernel
	// worker pool at once (default 4).
	MaxConcurrentRuns int

	// PlanCacheSize bounds the in-memory compiled-plan LRU (default 64).
	PlanCacheSize int

	// CachePath / DisableDiskCache control the plan store's disk tier
	// under the plan cache: a directory of plan files (empty path =
	// per-user default), which is what lets a restarted daemon answer
	// a fingerprint it has compiled before without compiling.
	CachePath        string
	DisableDiskCache bool

	// TuneTopK is how many candidates a cold-path compile executes
	// (default 2).
	TuneTopK int

	// DefaultDeadline bounds runs that do not carry their own
	// deadline_ms (default 60s).
	DefaultDeadline time.Duration

	// DebugFaults allows requests to carry fault-injection specs; off,
	// such requests are rejected — chaos is an operator decision, not a
	// caller one.
	DebugFaults bool

	// FlightRecorderSize bounds the in-memory ring of recent run traces
	// served at /v1/runs (default 64); FlightKeep bounds the kept set of
	// slowest/failed runs that survive ring wraparound (default 8).
	FlightRecorderSize int
	FlightKeep         int

	// TraceDir, when set, additionally writes every recorded run trace
	// to <TraceDir>/<run-id>.json — the durable twin of the in-memory
	// flight recorder.
	TraceDir string

	// Transport selects the runtime fabric served runs execute over
	// (chan in-process links by default, proc for per-device worker
	// processes over Unix sockets). An operator decision, not a caller
	// one — requests cannot override it.
	Transport runtime.TransportKind
}

// WithDefaults returns c with every unset field at the value New serves
// with: the one statement of the daemon's defaults, which overlap
// serve's flags show rather than restate.
func (c Config) WithDefaults() Config {
	if c.MaxPending <= 0 {
		c.MaxPending = 256
	}
	if c.MaxConcurrentRuns <= 0 {
		c.MaxConcurrentRuns = 4
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 64
	}
	if c.TuneTopK <= 0 {
		c.TuneTopK = 2
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 64
	}
	if c.FlightKeep <= 0 {
		c.FlightKeep = 8
	}
	return c
}

// Server is the overlap-as-a-service daemon. Create with New, attach
// with Handler or Start, stop with Shutdown.
type Server struct {
	cfg      Config
	plans    *planCache
	recorder *flightRecorder
	pending  chan struct{} // MaxPending places
	slots    chan struct{} // admission semaphore
	// rngs holds one argument generator per admission slot: a run
	// holding a slot takes one, reseeds it and gives it back.
	rngs chan *rand.Rand
	mux  *http.ServeMux
	// flightsMu guards flights, the compile in flight per fingerprint.
	flightsMu sync.Mutex
	flights   map[string]*flight
	// compiles counts the compiles in flight, for Shutdown to wait on.
	// They start only inside a handler, under drainMu's read lock, so
	// Add never races Shutdown's Wait.
	compiles sync.WaitGroup
	httpSrv  *http.Server
	draining atomic.Bool
	// check is runtime.CheckInterpreter; a field so a test can fail it.
	check func(*hlo.Computation, int, [][]*tensor.Tensor, *runtime.Result) error
	// graphBuilds counts buildGraph calls: what a warm request of a known
	// shape must not do (the alias tests read it).
	graphBuilds atomic.Int64
	// drainMu is the drain barrier: every in-flight handler holds a read
	// lock, and Shutdown's write lock acquires only once they have all
	// finished. (A WaitGroup cannot express this — Add would race Wait
	// when a request slips past the draining gate at counter zero.)
	drainMu sync.RWMutex
}

// New builds a daemon from the config; it starts serving once attached
// to a listener (Start) or a mux (Handler).
func New(cfg Config) (*Server, error) {
	cfg = cfg.WithDefaults()
	s := &Server{
		cfg:      cfg,
		plans:    newPlanCache(cfg.PlanCacheSize),
		recorder: newFlightRecorder(cfg.FlightRecorderSize, cfg.FlightKeep),
		pending:  make(chan struct{}, cfg.MaxPending),
		slots:    make(chan struct{}, cfg.MaxConcurrentRuns),
		rngs:     make(chan *rand.Rand, cfg.MaxConcurrentRuns),
		flights:  map[string]*flight{},
		check:    runtime.CheckInterpreter,
	}
	for i := 0; i < cfg.MaxConcurrentRuns; i++ {
		s.rngs <- rand.New(rand.NewSource(0))
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/run", s.guard(s.handleRun))
	s.mux.HandleFunc("/v1/compile", s.guard(s.handleCompile))
	s.mux.HandleFunc("/v1/plans", s.guard(s.handlePlans))
	s.mux.HandleFunc("/v1/runs", s.guard(s.handleRuns))
	s.mux.HandleFunc("/v1/runs/", s.guard(s.handleRunByID))
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.Handle("/metrics", obs.Default().Handler())
	return s, nil
}

// Handler exposes the daemon's routes (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (":0" picks a free port), serves in a background
// goroutine, and returns the resolved address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains gracefully: new requests are refused, every in-flight
// request completes and is answered, then every compile still running —
// one whose waiters all gave up included — lands. Safe to call without
// Start (test servers driving Handler directly).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() {
		s.drainMu.Lock()
		defer s.drainMu.Unlock()
		s.compiles.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return err
}

// enterPending takes one of the MaxPending places for a decoded request,
// which gives it back with leavePending once answered; with every place
// taken it answers 503 and returns false.
func (s *Server) enterPending(w http.ResponseWriter) bool {
	select {
	case s.pending <- struct{}{}:
		return true
	default:
		svOverload.Inc()
		s.writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: overloaded: %d requests already pending", cap(s.pending)))
		return false
	}
}

func (s *Server) leavePending() { <-s.pending }

// guard wraps a handler with the drain gate, the in-flight waitgroup,
// and request counting.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: draining"))
			return
		}
		s.drainMu.RLock()
		defer s.drainMu.RUnlock()
		// Re-check inside the lock: a request that passed the fast gate
		// just as draining flipped must still be refused, not raced.
		if s.draining.Load() {
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("serve: draining"))
			return
		}
		svRequests.Inc()
		h(w, r)
	}
}

// Request is one compile or run job. Either Model (a Table 1/2 name,
// miniaturized to Devices×Dim) or Program (hlo.Format text) names the
// computation.
type Request struct {
	Model   string `json:"model,omitempty"`
	Dim     int    `json:"dim,omitempty"`
	Program string `json:"program,omitempty"`
	Devices int    `json:"devices"`

	// Scenario selects the program family: "" (or "layer") builds the
	// forward layer step; "train" builds the fwd+bwd+SGD training step
	// via internal/train. Training programs compile, cache, and serve
	// through the same plan machinery as inference layers.
	Scenario string `json:"scenario,omitempty"`
	// Strategy partitions the training step ("megatron" or "ddp");
	// train scenario only.
	Strategy string `json:"strategy,omitempty"`
	// Layers is the training step's layer count (default 2); train
	// scenario only.
	Layers int `json:"layers,omitempty"`

	// Seed generates the run's replicated random arguments (default 42).
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMS bounds the run (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Check cross-checks the run bit-for-bit against the lockstep
	// interpreter before answering.
	Check bool `json:"check,omitempty"`

	// Fault and FaultSeed inject a deterministic FaultPlan
	// (ParseFaults grammar); rejected unless the server runs with
	// DebugFaults.
	Fault     string `json:"fault,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`

	// faults is Fault parsed and seeded by decodeRequest; nil injects
	// nothing (no spec, or one that is blank once trimmed).
	faults *runtime.FaultPlan
}

// RunResponse is the answer to /v1/run.
type RunResponse struct {
	// RunID is this execution's identity: the key its flight-recorder
	// trace (GET /v1/runs/{id}), structured log lines, and runtime
	// telemetry all correlate under.
	RunID       string `json:"run_id"`
	Fingerprint string `json:"fingerprint"`
	// Plan is where the plan came from: hit, miss, or coalesced.
	Plan     string `json:"plan"`
	BestName string `json:"best_name"`
	Devices  int    `json:"devices"`
	// BatchSize is always 1: the daemon batches nothing. It survives
	// only because the frozen bench/ reads it; the next benchmark
	// revision drops it.
	BatchSize int `json:"batch_size"`

	BreakdownMS       BreakdownMS `json:"breakdown_ms"`
	OverlapEfficiency float64     `json:"overlap_efficiency"`
	// Digest is sha256 over every device's root tensor bytes — callers
	// verify bit-identity across replicas and against the interpreter
	// without shipping tensors.
	Digest   string   `json:"digest"`
	Checked  bool     `json:"checked,omitempty"`
	TimingMS TimingMS `json:"timing_ms"`
}

// BreakdownMS is the measured step decomposition in milliseconds.
type BreakdownMS struct {
	Step    float64 `json:"step"`
	Compute float64 `json:"compute"`
	Wire    float64 `json:"wire"`
	Exposed float64 `json:"exposed"`
}

// TimingMS decomposes where the request's latency went, in
// milliseconds: plan lookup (and the compile it waited on), admission
// wait, run.
type TimingMS struct {
	// Queue is always 0: nothing queues a request ahead of its plan
	// lookup. It survives only because the frozen bench/ reads it; the
	// next benchmark revision drops it.
	Queue     float64 `json:"queue"`
	Plan      float64 `json:"plan"`
	Admission float64 `json:"admission"`
	Run       float64 `json:"run"`
	Total     float64 `json:"total"`
}

// errorBody is every non-200 response: a cause, and for runtime
// failures the full structured attribution.
type errorBody struct {
	Error       string            `json:"error"`
	RunError    *runtime.RunError `json:"run_error,omitempty"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	// RunID correlates a failed run with its flight-recorder trace and
	// log lines (set on failures that reached execution).
	RunID string `json:"run_id,omitempty"`
}

// handleRun serves POST /v1/run: acquire the plan (cache, coalesced, or
// compiled), execute it under an admission slot on the concurrent
// runtime, answer with the measured breakdown and overlap attribution.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := s.decodeRequest(w, r)
	if err != nil || !s.enterPending(w) {
		return
	}
	defer s.leavePending()
	prog, err := s.resolve(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	key := prog.key

	ctx, cancel := s.runContext(r, req)
	defer cancel()

	out, err := s.acquirePlan(ctx, req, prog)
	if err != nil {
		s.writePlanError(w, key, err)
		return
	}

	runID := obs.NewRunID()
	run, err := s.runAdmitted(ctx, req, out.plan, runID)
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	// The digest below is the last reader of the outputs, the run and its
	// check the only readers of the arguments: both go back to the arena.
	defer run.release()
	// The admission slot is free again: the digest, the attribution, the
	// trace and the response below are this request's own time.
	timing := TimingMS{
		Plan:      out.wait.Seconds() * 1e3,
		Admission: run.admission.Seconds() * 1e3,
		Run:       run.dur.Seconds() * 1e3,
	}
	if err := run.err; err != nil {
		// Graceful degradation: a failed run is this request's failure
		// alone. The structured attribution goes back as JSON, the
		// daemon keeps serving, and the plan stays cached — it is a
		// pure function of the fingerprint and a run failure says
		// nothing about it. The failure still leaves a trace: its
		// plan/admission/run breakdown is recorded under the run
		// ID, and the failed-run latency histogram sees it.
		timing.Total = time.Since(start).Seconds() * 1e3
		svFailedRunSeconds.Observe(time.Since(start).Seconds())
		var re *runtime.RunError
		if errors.As(err, &re) {
			svRunErrors.Inc()
			head := s.newHeader(runID, req, key, out.plan.plan.Devices, start, timing, nil)
			head.SetError(obs.RunTraceError{
				Device:      re.Device,
				Instruction: re.Instr,
				Phase:       string(re.Phase),
				Fault:       re.Fault,
				Cause:       re.Error(),
			})
			s.record(head, nil)
			obs.Log().Error("serve.run", "run_id", runID, "fingerprint", key,
				"scenario", scenarioLabel(req.Scenario), "status", "failed",
				"total_ms", timing.Total, "error", re.Error())
			s.writeJSON(w, http.StatusServiceUnavailable,
				errorBody{Error: re.Error(), RunError: re, Fingerprint: key, RunID: runID})
			return
		}
		obs.Log().Error("serve.run", "run_id", runID, "fingerprint", key,
			"scenario", scenarioLabel(req.Scenario), "status", "failed", "error", err.Error())
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}

	res := run.res
	b := res.Breakdown
	timing.Total = time.Since(start).Seconds() * 1e3
	head := s.newHeader(runID, req, key, out.plan.plan.Devices, start, timing, res.Trace)
	head.StepMS = b.StepTime * 1e3
	if run.checkErr != nil {
		// The run an operator will ask for: recorded, spans and all.
		head.SetError(obs.RunTraceError{Device: -1, Phase: "check", Cause: run.checkErr.Error()})
		s.record(head, res.Trace)
		obs.Log().Error("serve.run", "run_id", runID, "fingerprint", key,
			"scenario", scenarioLabel(req.Scenario), "status", "failed", "error", run.checkErr.Error())
		svErrors.Inc()
		s.writeJSON(w, http.StatusInternalServerError,
			errorBody{Error: run.checkErr.Error(), Fingerprint: key, RunID: runID})
		return
	}
	s.record(head, res.Trace)
	obs.Log().Info("serve.run", "run_id", runID, "fingerprint", key,
		"scenario", scenarioLabel(req.Scenario), "status", "ok", "plan", out.source,
		"step_ms", head.StepMS, "total_ms", timing.Total,
		"overlap_efficiency", head.OverlapEfficiency)

	s.writeJSON(w, http.StatusOK, RunResponse{
		RunID:       runID,
		Fingerprint: key,
		Plan:        out.source,
		BestName:    out.plan.plan.BestName,
		Devices:     out.plan.plan.Devices,
		BatchSize:   1,
		BreakdownMS: BreakdownMS{
			Step:    b.StepTime * 1e3,
			Compute: b.Compute * 1e3,
			Wire:    b.CollectiveWire * 1e3,
			Exposed: b.Exposed * 1e3,
		},
		OverlapEfficiency: head.OverlapEfficiency,
		Digest:            Digest(run.outputs),
		Checked:           req.Check,
		TimingMS:          timing,
	})
}

// admittedRun is what one execution under an admission slot produced:
// how long it waited for the slot and ran, the arguments it drew, then
// either the run's error or its result with the flattened outputs and,
// when the request asked for the interpreter cross-check, its verdict.
type admittedRun struct {
	admission, dur time.Duration
	args           [][]*tensor.Tensor
	res            *runtime.Result
	outputs        []*tensor.Tensor
	err, checkErr  error
}

// release hands the run's outputs and arguments back to the arena.
func (r *admittedRun) release() {
	if r.res != nil {
		r.res.Release()
	}
	runtime.ReleaseArgs(r.args)
}

// runAdmitted executes the plan's Executable for one request, injecting
// wire at the plan's clock, the one its candidates were measured at; a
// request cannot change it. Served runs share the kernel worker pool,
// and the admission semaphore bounds how many hold it at once: the slot
// is taken here and given back when the run and its Check are over —
// before the digest, the trace and the response write to a possibly
// slow client, none of which touch the pool. The error return is the
// admission wait outlasting the request's deadline; a failed run comes
// back in admittedRun.err.
func (s *Server) runAdmitted(ctx context.Context, req *Request, cp *cachedPlan, runID string) (admittedRun, error) {
	var run admittedRun
	admStart := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return run, fmt.Errorf("serve: admission wait exceeded deadline: %w", ctx.Err())
	}
	run.admission = time.Since(admStart)
	svAdmissionWait.Observe(run.admission.Seconds())
	svInflight.Add(1)
	defer func() { svInflight.Add(-1); <-s.slots }()

	devices := cp.plan.Devices
	// Holding a slot, a generator is always there to take.
	rng := <-s.rngs
	rng.Seed(req.Seed)
	run.args = argsFrom(cp.comp, rng, pooledRand)
	s.rngs <- rng
	runStart := time.Now()
	run.res, run.err = cp.exe.Run(ctx, run.args, runtime.Options{
		TimeScale: cp.plan.TimeScale, Trace: true, RunID: runID,
		Transport: s.cfg.Transport, Faults: req.faults,
	})
	run.dur = time.Since(runStart)
	svRunSeconds.Observe(run.dur.Seconds())
	if run.err != nil {
		return run, nil
	}
	run.outputs = Outputs(cp.comp, run.res.All, devices)
	if req.Check {
		run.checkErr = s.check(cp.comp, devices, run.args, run.res)
	}
	return run, nil
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
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s needs GET", r.URL.Path))
		return
	}
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
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s needs GET", r.URL.Path))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/runs/")
	if !runIDPattern.MatchString(id) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: no run id in %s", r.URL.Path))
		return
	}
	trace := s.recorder.get(id)
	if trace == nil && s.cfg.TraceDir != "" {
		if data, err := os.ReadFile(filepath.Join(s.cfg.TraceDir, id+".json")); err == nil {
			if t, err := obs.DecodeRunTrace(data); err == nil {
				trace = t
			}
		}
	}
	if trace == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: run %s is not in the flight recorder (evicted or never recorded)", id))
		return
	}
	var (
		data []byte
		err  error
	)
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		data, err = trace.EncodeJSON()
	case "chrome":
		data, err = trace.ChromeTrace()
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown trace format %q (want json or chrome)", format))
		return
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleCompile serves POST /v1/compile: acquire (or build) the plan
// and return the serialized artifact itself — the same bytes
// overlap tune -plan-out writes and overlap run -plan-in executes.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeRequest(w, r)
	if err != nil || !s.enterPending(w) {
		return
	}
	defer s.leavePending()
	prog, err := s.resolve(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.runContext(r, req)
	defer cancel()
	out, err := s.acquirePlan(ctx, req, prog)
	if err != nil {
		s.writePlanError(w, prog.key, err)
		return
	}
	data, err := out.plan.plan.EncodeJSON()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Overlap-Plan", out.source)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handlePlans serves GET /v1/plans: the cached fingerprints, hottest
// first, and their count — both from one snapshot, so a compile or an
// eviction landing meanwhile cannot make them disagree.
func (s *Server) handlePlans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s needs GET", r.URL.Path))
		return
	}
	plans := s.plans.keys()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"plans": plans,
		"size":  len(plans),
	})
}

// What one request may ask of the daemon before any plan exists: the
// bytes of its body, the ring size (a run, the simulator and the span
// slab all size by it), a model's head dimension and training layer
// count (what building its graph costs; CI and the benchmark send at
// most 8 and 2), for an inline program — whose text the body bounds but
// whose loops it does not — the loop-body instructions one run of it
// executes (Σ trip count × body length; ring loops over 8 devices stay
// under a thousand), and for every program, built or inline, its
// modeled live bytes across the ring (hlo.PeakMemory per device ×
// devices). The caps on the numbers do not bound the bytes: a dim-8
// BigSSL_10B layer step is modeled at 0.36 MB on 4 devices, 5.5 MB on 8
// and 82 GB on 64, and a dim-8, 2-layer ddp training step at 0.44 MB on
// 4 and 1.8 GB on 64. The largest program the benchmark sends is the
// 0.44 MB one, and the corpus peaks under half a megabyte.
const (
	maxBodyBytes      = 1 << 20
	maxDevices        = 64
	maxDim            = 32
	maxLayers         = 16
	maxInlineLoopWork = 1 << 16
	maxProgramBytes   = 1 << 26
)

// decodeRequest parses and validates the POST body; on failure it has
// already written the error response.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, error) {
	if r.Method != http.MethodPost {
		err := fmt.Errorf("serve: %s needs POST", r.URL.Path)
		s.writeError(w, http.StatusMethodNotAllowed, err)
		return nil, err
	}
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return nil, err
	}
	if req.Devices < 1 || req.Devices > maxDevices {
		err := fmt.Errorf("serve: request needs 1 <= devices <= %d, got %d", maxDevices, req.Devices)
		s.writeError(w, http.StatusBadRequest, err)
		return nil, err
	}
	if req.Dim > maxDim || req.Layers > maxLayers {
		err := fmt.Errorf("serve: request needs dim <= %d and layers <= %d, got %d and %d", maxDim, maxLayers, req.Dim, req.Layers)
		s.writeError(w, http.StatusBadRequest, err)
		return nil, err
	}
	if (req.Model == "") == (req.Program == "") {
		err := fmt.Errorf("serve: request needs exactly one of model or program")
		s.writeError(w, http.StatusBadRequest, err)
		return nil, err
	}
	switch req.Scenario {
	case "", "layer":
	case "train":
		if req.Program != "" {
			err := fmt.Errorf("serve: the train scenario builds its program from a model; inline HLO is not accepted")
			s.writeError(w, http.StatusBadRequest, err)
			return nil, err
		}
	default:
		err := fmt.Errorf("serve: unknown scenario %q (want layer or train)", req.Scenario)
		s.writeError(w, http.StatusBadRequest, err)
		return nil, err
	}
	if req.Fault != "" {
		if !s.cfg.DebugFaults {
			err := fmt.Errorf("serve: fault injection requires the daemon's debug-faults flag")
			s.writeError(w, http.StatusForbidden, err)
			return nil, err
		}
		// Rejected here, before any plan is acquired or admission slot
		// taken: a malformed spec must not cost a cold compile.
		plan, err := runtime.ParseFaults(req.Fault)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return nil, err
		}
		if plan != nil {
			plan.Seed = req.FaultSeed
		}
		req.faults = plan
	}
	if req.Seed == 0 {
		req.Seed = 42
	}
	if req.Dim == 0 {
		req.Dim = 8
	}
	return &req, nil
}

// program is a request's computation as the plan machinery needs it:
// named (key), and built only if somebody has to compile it.
type program struct {
	// key is the plan fingerprint, autotune.KeyOf(fingerprint, …).
	key string
	// fingerprint is the graph's autotune.ProgramFingerprint.
	fingerprint string
	// shape is the request's shape; zero (no model name) for an
	// inline-program request, which has none.
	shape requestShape
	// comp is the graph when resolve had to build it to name it; nil
	// for a known shape, whose graph is built only if its plan must be
	// compiled.
	comp *hlo.Computation
}

// resolve names the request's program: its plan-cache fingerprint, and
// the graph itself when naming it took building it.
//
// The fingerprint has two halves (autotune.Key). The program half is a
// digest of the graph's text, a pure function of the request's shape,
// and building a miniature's graph only to digest it was a twentieth of
// a warm request's allocations — so the plan cache remembers, beside
// each plan, the shapes that resolved to it and their program digest,
// and a known shape skips models.BuildLayerStep / train.Build and the
// digest altogether. The host half — the kernels' worker count,
// GOMAXPROCS — is never remembered: KeyOf reads it on every request, so
// plans measured under one parallelism are never served under another,
// exactly as if the graph had been rebuilt. Inline programs are parsed
// and digested every time.
func (s *Server) resolve(req *Request) (*program, error) {
	if req.Program != "" {
		c, err := hlo.ParseProgram(req.Program, req.Devices)
		if err == nil {
			err = boundLoopWork(c)
		}
		if err == nil {
			err = boundMemory(c, req.Devices)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: program is not accepted: %w", err)
		}
		fp := autotune.ProgramFingerprint(c)
		return &program{key: autotune.KeyOf(fp, machine.TPUv4(), req.Devices), fingerprint: fp, comp: c}, nil
	}
	prog := &program{shape: shapeOf(req)}
	fp, known := s.plans.fingerprintOf(prog.shape)
	if !known {
		// A known shape was bounded when it was first built.
		c, err := s.buildGraph(prog.shape)
		if err == nil {
			err = boundMemory(c, req.Devices)
		}
		if err != nil {
			return nil, err
		}
		prog.comp, fp = c, autotune.ProgramFingerprint(c)
	}
	prog.fingerprint = fp
	prog.key = autotune.KeyOf(fp, machine.TPUv4(), req.Devices)
	return prog, nil
}

// boundLoopWork refuses an inline program whose loops would execute more
// than maxInlineLoopWork body instructions: the body size bounds the
// text, and only a trip count makes a small text a long run. Programs
// built from a model name never come here; their loops trip once per
// device.
func boundLoopWork(c *hlo.Computation) error {
	work := 0
	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		if in.Op != hlo.OpLoop {
			continue
		}
		// Divided, not multiplied: a trip count is any int the text names.
		body := max(in.Body.NumInstructions(), 1)
		if in.TripCount > (maxInlineLoopWork-work)/body {
			return fmt.Errorf("serve: loop %s (trip count %d, %d body instructions) takes the program past %d loop-body instructions per run",
				in.Name, in.TripCount, body, maxInlineLoopWork)
		}
		work += in.TripCount * body
	}
	return nil
}

// boundMemory refuses a program whose modeled live bytes across the
// ring pass maxProgramBytes: the daemon allocates every parameter before
// the program's first run, and each run about its peak.
func boundMemory(c *hlo.Computation, devices int) error {
	perDevice := int64(maxProgramBytes / devices)
	if peak := hlo.PeakMemory(c).PeakBytes; peak > perDevice {
		return fmt.Errorf("serve: the program peaks at %d live bytes per device, past the %d a %d-device program may use",
			peak, perDevice, devices)
	}
	return nil
}

// buildGraph constructs the computation a request shape names: the
// forward layer step of a miniaturized Table 1/2 model, or its
// fwd+bwd+SGD training step.
func (s *Server) buildGraph(shape requestShape) (*hlo.Computation, error) {
	s.graphBuilds.Add(1)
	cfg, err := models.ByName(shape.model)
	if err != nil {
		return nil, err
	}
	if shape.train {
		strategy, err := train.ParseStrategy(shape.strategy)
		if err != nil {
			return nil, err
		}
		tc, err := train.FromModel(cfg, shape.devices, shape.dim, shape.layers, strategy)
		if err != nil {
			return nil, err
		}
		prog, err := train.Build(tc)
		if err != nil {
			return nil, err
		}
		return prog.Comp, nil
	}
	mini, err := models.Miniature(cfg, shape.devices, shape.dim)
	if err != nil {
		return nil, err
	}
	return models.BuildLayerStep(mini)
}

// acquirePlan gets the request's plan through getPlan: the plan cache
// answers warm requests with zero compilation, identical fingerprints
// coalesce onto one compile. The compile closure runs at most once per
// fingerprint at a time and builds everything a cache entry holds — the
// plan, its parsed computation and that computation's Executable —
// before the entry is published. A model request that got its plan is
// remembered by shape, so the next one of that shape resolves without
// its graph.
func (s *Server) acquirePlan(ctx context.Context, req *Request, prog *program) (planOutcome, error) {
	devices, seed := req.Devices, req.Seed
	out, err := s.getPlan(ctx, prog.key, func() (*cachedPlan, error) {
		comp := prog.comp
		if comp == nil {
			// A known shape whose plan is not cached under this key: the
			// host half of the key moved since the shape was remembered,
			// or the plan was evicted since resolve looked.
			c, err := s.buildGraph(prog.shape)
			if err != nil {
				return nil, err
			}
			comp = c
		}
		plan, err := autotune.CompileKeyed(prog.key, comp, devices, Args(comp, seed), autotune.Options{
			Spec:         machine.TPUv4(),
			TopK:         s.cfg.TuneTopK,
			CachePath:    s.cfg.CachePath,
			DisableCache: s.cfg.DisableDiskCache,
			Calibrate:    true,
		})
		if err != nil {
			return nil, err
		}
		exec, err := plan.Computation()
		if err != nil {
			return nil, err
		}
		exe, err := runtime.Compile(exec, plan.Devices, machine.TPUv4())
		if err != nil {
			return nil, err
		}
		return &cachedPlan{plan: plan, comp: exec, exe: exe}, nil
	})
	if err == nil && prog.shape.model != "" {
		s.plans.remember(prog.key, prog.shape, prog.fingerprint)
	}
	return out, err
}

func (s *Server) runContext(r *http.Request, req *Request) (context.Context, context.CancelFunc) {
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), deadline)
}

func (s *Server) writePlanError(w http.ResponseWriter, key string, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusGatewayTimeout
	}
	svErrors.Inc()
	s.writeJSON(w, status, errorBody{Error: err.Error(), Fingerprint: key})
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	svErrors.Inc()
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Args generates the replicated random per-parameter arguments the
// serving convention uses (one tensor per parameter, seeded), shared by
// the daemon, its clients, and the CLIs so a caller can reproduce a
// served run bit for bit.
func Args(c *hlo.Computation, seed int64) [][]*tensor.Tensor {
	return argsFrom(c, rand.New(rand.NewSource(seed)), tensor.Rand)
}

// argsFrom is Args over the given seeded generator and source of random
// tensors.
func argsFrom(c *hlo.Computation, rng *rand.Rand, draw func(rng *rand.Rand, shape ...int) *tensor.Tensor) [][]*tensor.Tensor {
	params := c.Parameters()
	args := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		args[i] = []*tensor.Tensor{draw(rng, p.Shape...)}
	}
	return args
}

// pooledRand is tensor.Rand — the same stream, the same bytes — into a
// free-list buffer, for the request that hands it back (ReleaseArgs).
func pooledRand(rng *rand.Rand, shape ...int) *tensor.Tensor {
	return tensor.RandInto(tensor.NewPooled(shape...), rng)
}

// Outputs flattens a computation's real per-device output tensors in
// deterministic order: the root's operands when the root is a tuple (a
// tuple value carries no payload of its own), else the root itself.
// Both runtime Result.All and sim.InterpretAll satisfy the map shape.
func Outputs(c *hlo.Computation, all map[*hlo.Instruction][]*tensor.Tensor, devices int) []*tensor.Tensor {
	roots := []*hlo.Instruction{c.Root()}
	if c.Root().Op == hlo.OpTuple {
		roots = c.Root().Operands
	}
	out := make([]*tensor.Tensor, 0, len(roots)*devices)
	for d := 0; d < devices; d++ {
		for _, in := range roots {
			out = append(out, all[in][d])
		}
	}
	return out
}

// Digest hashes every output tensor's bytes into one hex sha256 — the
// cheap bit-identity witness responses carry.
func Digest(values []*tensor.Tensor) string {
	h := sha256.New()
	tensor.HashBits(h, values...)
	return hex.EncodeToString(h.Sum(nil))
}
