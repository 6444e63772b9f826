package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"overlap"
	"overlap/cmd/internal/cli"
)

// setupServe is `overlap serve`: the overlap pipeline as a long-running
// service — an HTTP/JSON daemon that compiles programs into cacheable
// Plan artifacts and executes them on the concurrent goroutine runtime.
// The steady-state run path is a plan-cache lookup plus execution —
// zero compilation — while a cold request joins the one compile in
// flight for its fingerprint, so identical programs share one tune.
//
// Endpoints:
//
//	POST /v1/run      execute a model (or inline HLO program); returns
//	                  the measured breakdown, overlap efficiency, and a
//	                  result digest
//	POST /v1/compile  return the compiled Plan artifact (same JSON as
//	                  overlap tune -plan-out / overlap run -plan-in)
//	GET  /v1/plans    list cached plan fingerprints
//	GET  /v1/runs     flight recorder: recent + kept (slowest/failed)
//	                  run traces, newest first
//	GET  /v1/runs/ID  one run's full trace artifact
//	                  (?format=json|chrome)
//	GET  /metrics     live Prometheus telemetry (overlap_serve_* et al)
//	GET  /healthz     liveness
//
// Usage:
//
//	overlap serve -addr :8080
//	curl -s localhost:8080/v1/run -d '{"model":"GPT_32B","devices":4,"dim":4}'
//	overlap serve -addr :8080 -debug-faults   # allow fault-injection requests
//	overlap serve -addr :8080 -debug-addr localhost:6060   # net/http/pprof on a separate port
//
// Structured JSON logs (one object per line, "run_id"-keyed) go to
// stderr. SIGINT/SIGTERM drain gracefully: in-flight requests and
// compiles finish, then the process exits 0.
func setupServe(fs *flag.FlagSet, stdout, stderr io.Writer) func() error {
	// The daemon's defaults are serve.New's; the flags show them.
	def := overlap.ServerConfig{}.WithDefaults()
	f := cli.Defaults()
	f.TopK = def.TuneTopK
	// -transport is an operator decision: requests cannot override it.
	// The wire scale is each plan's own clock.
	f.Register(fs, "transport", "topk", "cache", "no-cache")
	addr := fs.String("addr", ":8080", "listen address")
	maxPending := fs.Int("max-pending", def.MaxPending, "run and compile requests between decode and response; beyond it requests get 503")
	maxRuns := fs.Int("max-runs", def.MaxConcurrentRuns, "admission limit: concurrent runtime executions sharing the kernel pool")
	planCache := fs.Int("plan-cache", def.PlanCacheSize, "in-memory plan cache capacity, in program bodies (every name of a body shares its entry)")
	deadline := fs.Duration("default-deadline", def.DefaultDeadline, "run deadline when the request carries none")
	debugFaults := fs.Bool("debug-faults", false, "allow requests to inject deterministic faults (chaos testing)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof at this address on a separate mux (never on the serving port); empty disables")
	flightSize := fs.Int("flight-size", def.FlightRecorderSize, "flight recorder: ring capacity of recent run traces served at /v1/runs")
	flightKeep := fs.Int("flight-keep", def.FlightKeep, "flight recorder: slowest/failed runs kept beyond the ring")
	traceDir := fs.String("trace-dir", "", "additionally write every recorded run trace to <dir>/<run-id>.json")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")

	return func() error {
		tk, err := overlap.ParseTransport(f.Transport)
		if err != nil {
			return err
		}
		// Structured logs to stderr: one JSON object per line, every line
		// of a run's story carrying its run_id.
		overlap.SetLogOutput(stderr)

		if *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				return err
			}
		}

		srv, err := overlap.NewServer(overlap.ServerConfig{
			MaxPending:         *maxPending,
			MaxConcurrentRuns:  *maxRuns,
			PlanCacheSize:      *planCache,
			CachePath:          f.Cache,
			DisableDiskCache:   f.NoCache,
			TuneTopK:           f.TopK,
			DefaultDeadline:    *deadline,
			DebugFaults:        *debugFaults,
			FlightRecorderSize: *flightSize,
			FlightKeep:         *flightKeep,
			TraceDir:           *traceDir,
			Transport:          tk,
		})
		if err != nil {
			return err
		}

		if *debugAddr != "" {
			addr, err := startDebugServer(*debugAddr)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "overlap serve: pprof at http://%s/debug/pprof/ (debug mux, not on the serving port)\n", addr)
		}

		// Listen for the drain signal before announcing the address: a
		// signal sent on seeing the startup line must drain, not kill.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sig)
		bound, err := srv.Start(*addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "overlap serve: serving at http://%s (plans cached: %d, pending: %d, admission: %d)\n",
			bound, *planCache, *maxPending, *maxRuns)
		if *debugFaults {
			fmt.Fprintln(stdout, "overlap serve: debug-faults enabled — requests may inject deterministic failures")
		}

		got := <-sig
		fmt.Fprintf(stdout, "overlap serve: %s — draining in-flight requests\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		fmt.Fprintln(stdout, "overlap serve: drained; bye")
		return nil
	}
}

// startDebugServer exposes net/http/pprof on its own mux and listener.
// The serving mux never registers these handlers, so the profiling
// surface exists only when (and where) the operator asks for it.
func startDebugServer(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
