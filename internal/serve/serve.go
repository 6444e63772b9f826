// Package serve turns the overlap pipeline into a long-running service:
// a daemon that accepts compile, tune, and run jobs over HTTP/JSON and
// answers them from a compiled-plan cache instead of re-running the
// partition → decompose → schedule pipeline per invocation. The
// pipeline's decisions are pure functions of the program's body (its
// text without the computation's name), the machine spec, the device
// count and the host's parallelism — exactly the property a serving
// system exploits. So there is one plan store, keyed by the body
// (autotune.Key), and a request's own key, which carries its program's
// name, is an alias of its body's entry: every name of a body serves
// one plan. Plans are priced on the TPU-v4 spec (machine.TPUv4), as
// every executed CLI run is.
//
// A request flows lookup → singleflight → admission → run, and the
// files follow it. serve.go holds the server's lifecycle, its routes and
// the preamble the POST routes share, where MaxPending bounds the
// requests anywhere in the flow (one more is answered 503). request.go
// decodes and validates a request and names its program. plan.go
// answers it from the plan cache, or joins or starts its request key's
// one compile, which finds a held body by one lookup. run.go admits it to the runs sharing the einsum kernel
// worker pool, runs it and answers it from one place. recorder.go keeps
// each run's trace for GET /v1/runs.
//
// Failures degrade, never cascade: a run that fails (injected fault,
// deadline) returns the structured *runtime.RunError as JSON with a
// 5xx, the daemon keeps serving, and the plan cache is untouched — a
// failed run says nothing about the plan that produced it.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"overlap/internal/autotune"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
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

	// PlanCacheSize bounds the program bodies the in-memory plan cache
	// holds (default 64). Every name and request shape of a body is an
	// alias that lives and dies with it.
	PlanCacheSize int

	// CachePath / DisableDiskCache control the plan store's disk tier
	// under the plan cache: a directory of plan files, one per body
	// (empty path = per-user default), which is what lets a restarted
	// daemon answer a body it has compiled before — under any name —
	// without compiling.
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
	cfg   Config
	plans *planCache
	// specKey is every plan key's machine half,
	// autotune.SpecKeyOf(machine.TPUv4()), digested once.
	specKey  autotune.SpecKey
	recorder *flightRecorder
	pending  chan struct{} // MaxPending places
	slots    chan struct{} // admission semaphore
	// rngs holds one argument generator per admission slot: a run
	// holding a slot takes one, reseeds it and gives it back.
	rngs chan *rand.Rand
	mux  *http.ServeMux
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
		specKey:  autotune.SpecKeyOf(machine.TPUv4()),
		recorder: newFlightRecorder(cfg.FlightRecorderSize, cfg.FlightKeep),
		pending:  make(chan struct{}, cfg.MaxPending),
		slots:    make(chan struct{}, cfg.MaxConcurrentRuns),
		rngs:     make(chan *rand.Rand, cfg.MaxConcurrentRuns),
		check:    runtime.CheckInterpreter,
	}
	for i := 0; i < cfg.MaxConcurrentRuns; i++ {
		s.rngs <- rand.New(rand.NewSource(0))
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/run", s.guard(http.MethodPost, s.withPlan(s.handleRun)))
	s.mux.HandleFunc("/v1/compile", s.guard(http.MethodPost, s.withPlan(s.handleCompile)))
	s.mux.HandleFunc("/v1/plans", s.guard(http.MethodGet, s.handlePlans))
	s.mux.HandleFunc("/v1/runs", s.guard(http.MethodGet, s.handleRuns))
	s.mux.HandleFunc("/v1/runs/", s.guard(http.MethodGet, s.handleRunByID))
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

// planned is a request the preamble accepted: decoded, validated and
// resolved, holding a MaxPending place, with its plan acquired under the
// request's context.
type planned struct {
	start time.Time
	ctx   context.Context
	req   *Request
	key   string
	out   planOutcome
}

// withPlan is the preamble /v1/run and /v1/compile share: decode and
// validate, take a MaxPending place, resolve the program, and acquire
// its plan under the request's deadline. It answers each of those
// failures itself and hands a request that got its plan to answer.
func (s *Server) withPlan(answer func(http.ResponseWriter, planned)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		req, status, err := s.decodeRequest(w, r)
		if err != nil {
			s.writeError(w, status, err)
			return
		}
		// One of the MaxPending places, given back once answered.
		select {
		case s.pending <- struct{}{}:
		default:
			svOverload.Inc()
			s.writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("serve: overloaded: %d requests already pending", cap(s.pending)))
			return
		}
		defer func() { <-s.pending }()
		prog, err := s.resolve(req)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := s.runContext(r, req)
		defer cancel()
		out, err := s.acquirePlan(ctx, req, prog)
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				status = http.StatusGatewayTimeout
			}
			svErrors.Inc()
			s.writeJSON(w, status, errorBody{Error: err.Error(), Fingerprint: prog.key})
			return
		}
		answer(w, planned{start: start, ctx: ctx, req: req, key: prog.key, out: out})
	}
}

// guard wraps a route's handler with the drain gate, the in-flight
// waitgroup, request counting, and the route's method: any other is
// answered 405.
func (s *Server) guard(method string, h http.HandlerFunc) http.HandlerFunc {
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
		if r.Method != method {
			s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s needs %s", r.URL.Path, method))
			return
		}
		h(w, r)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	svErrors.Inc()
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeJSON answers with v as indented JSON. It encodes through a
// pooled encoder into the encoder's own buffer, whose indent scratch is
// reused with it, and writes the document in one Write, as a fresh
// encoder on w would: the same bytes.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	jw := jsonWriters.Get().(*jsonWriter)
	if jw.enc.Encode(v) == nil {
		_, _ = w.Write(jw.buf.Bytes())
	}
	// One large document must not pin its buffer for every later one.
	if jw.buf.Cap() <= maxPooledJSON {
		jw.buf.Reset()
		jsonWriters.Put(jw)
	}
}

// jsonWriter is writeJSON's scratch: an encoder indenting into buf.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledJSON is the largest buffer a jsonWriter goes back to the
// pool with.
const maxPooledJSON = 64 << 10

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// writeBytes answers 200 with an already encoded JSON document.
func writeBytes(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
