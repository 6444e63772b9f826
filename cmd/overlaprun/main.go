// Command overlaprun executes a named model's layer step for real on
// the concurrent goroutine runtime — one goroutine per device, channel
// links, asynchronous CollectivePermutes — and prints a compute /
// communication / exposed-stall breakdown measured from wall-clock
// timestamps rather than the discrete-event simulator's predictions.
//
// The Table 1/2 models are far too large to execute with real tensors,
// so the named configuration is scaled down to a miniature with the
// same architecture, partitioning strategy, and collective structure:
// one layer on a 1×N ring, with dimensions shrunk proportionally to the
// device count. Injected wire delays (see -timescale) keep the
// compute-to-communication ratio meaningful at that scale.
//
// Usage:
//
//	overlaprun -model GPT_32B -devices 4                # all three modes
//	overlaprun -model GLaM_1T -devices 4 -mode overlap  # one mode
//	overlaprun -plan-in plan.json                       # execute a compiled plan, zero compilation
//	overlaprun -model GPT_32B -trace run.json           # Perfetto trace
//	overlaprun -model GPT_32B -attrib                   # per-collective overlap attribution
//	overlaprun -metrics-out run.prom                    # telemetry export (Prometheus text)
//	overlaprun -serve :9090                             # live /metrics endpoint
//	overlaprun -fault drop:link:0-1 -deadline 2s        # chaos: inject a fault, bound the stall
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"overlap"
	"overlap/internal/core"
	"overlap/internal/models"
	"overlap/internal/tensor"
)

// transportKind is the fabric transport every run in this process uses,
// resolved once from -transport in main.
var transportKind overlap.TransportKind

// kernelSplitK is -kernel-splitk: the factor the rolled and overlap
// modes' pipelines stamp on their einsums.
var kernelSplitK int

func main() {
	// A proc-transport run re-executes this binary as its workers; the
	// worker hook must run before any flag or model work.
	overlap.MaybeTransportWorker()

	model := flag.String("model", "GPT_32B", "model name from Table 1 or Table 2")
	devices := flag.Int("devices", 4, "ring size (goroutine devices)")
	dim := flag.Int("dim", 8, "miniature per-head dimension (scales every tensor)")
	mode := flag.String("mode", "all", "baseline, rolled, overlap, or all")
	timeScale := flag.Float64("timescale", 2000, "wire-delay scale: modeled seconds sleep this many times longer")
	traceFile := flag.String("trace", "", "write the overlap mode's Chrome trace to this file")
	traceOut := flag.String("trace-out", "", "write the overlap mode's run-scoped trace artifact (RunTrace JSON: spans with attribution verdicts, readable by traceviz -trace-in) to this file")
	check := flag.Bool("check", false, "cross-check runtime outputs against the lockstep interpreter")
	attrib := flag.Bool("attrib", false, "print the per-collective overlap attribution of each mode")
	metricsOut := flag.String("metrics-out", "", "export telemetry to this file (Prometheus text, or JSON with a .json suffix)")
	serveAddr := flag.String("serve", "", "serve a live /metrics endpoint at this address and stay up after the run")
	kernelWorkers := flag.Int("kernel-workers", 0, "intra-op einsum kernel parallelism (0 = GOMAXPROCS); results are byte-identical for any value")
	flag.IntVar(&kernelSplitK, "kernel-splitk", 0, "split-K factor the rolled and overlap pipelines stamp on every einsum (0 = off); factors >= 2 reassociate the contraction deterministically")
	faultSpec := flag.String("fault", "", "inject faults, comma-separated: crash:dev:D[:K], drop:link:S-D[:K], dup:link:S-D[:K], delay:link:S-D:DUR[:JITTER]")
	faultSeed := flag.Int64("fault-seed", 0, "seed for fault-injection jitter (deterministic per seed)")
	deadline := flag.Duration("deadline", 0, "abort a run that exceeds this wall-clock with a structured error (0 = no deadline)")
	planIn := flag.String("plan-in", "", "execute a compiled Plan artifact (from overlaptune -plan-out or the daemon's /v1/compile) instead of building a model; zero compilation")
	transport := flag.String("transport", "chan", "fabric transport: chan (in-process channels) or proc (one worker process per device over Unix sockets)")
	flag.Parse()

	overlap.SetKernelWorkers(*kernelWorkers)

	tk, err := overlap.ParseTransport(*transport)
	if err != nil {
		fail(err)
	}
	transportKind = tk

	faults, err := overlap.ParseFaults(*faultSpec)
	if err != nil {
		fail(err)
	}
	if faults != nil {
		faults.Seed = *faultSeed
		fmt.Printf("injecting faults: %s (seed %d)\n", faults, *faultSeed)
	}

	if *serveAddr != "" {
		_, addr, err := overlap.ServeMetrics(*serveAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("serving telemetry at http://%s/metrics\n", addr)
	}

	var runErr error
	if *planIn != "" {
		runErr = runPlan(*planIn, *timeScale, *traceFile, *traceOut, *check, *attrib, faults, *deadline)
	} else {
		cfg, err := models.ByName(*model)
		if err != nil {
			fail(err)
		}
		mini, err := models.Miniature(cfg, *devices, *dim)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s miniature: %d devices, model dim %d, ff dim %d, %d tokens\n",
			mini.Name, *devices, mini.ModelDim, mini.FFDim, mini.Tokens())

		modes := []string{"baseline", "rolled", "overlap"}
		if *mode != "all" {
			modes = []string{*mode}
		}
		for _, m := range modes {
			if err := runMode(mini, m, *devices, *timeScale, *traceFile, *traceOut, *check, *attrib, faults, *deadline); err != nil {
				runErr = err
				break
			}
		}
	}

	// Telemetry is written even when a run failed: the fault/abort
	// counters of a chaos run are exactly what the caller wants to see.
	if *metricsOut != "" {
		if err := overlap.Metrics().WriteFile(*metricsOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote telemetry to %s\n", *metricsOut)
	}
	if runErr != nil {
		fail(runErr)
	}
	if *serveAddr != "" {
		fmt.Println("runs done; serving /metrics until interrupted")
		select {}
	}
}

// runPlan loads a compiled Plan artifact and executes it directly: no
// model build, no pipeline Apply, no tuning — the round-trip proof that
// the serialized artifact is self-contained.
func runPlan(path string, timeScale float64, traceFile, traceOut string, check, attrib bool, faults *overlap.FaultPlan, deadline time.Duration) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	plan, err := overlap.DecodePlan(data)
	if err != nil {
		return err
	}
	c, err := plan.Computation()
	if err != nil {
		return err
	}
	fmt.Printf("plan %s: %d devices, winner %s (compiled %s)\n",
		plan.Fingerprint, plan.Devices, plan.BestName, plan.Created)

	args := randomArgs(c)
	ropts := overlap.RunOptions{Spec: overlap.TPUv4(), TimeScale: timeScale, Faults: faults, Transport: transportKind}
	if traceFile != "" || traceOut != "" || attrib {
		ropts.Trace = true
	}
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	res, err := overlap.RunContext(ctx, c, plan.Devices, args, ropts)
	if err != nil {
		return err
	}
	if check {
		want, err := overlap.Interpret(c, plan.Devices, args)
		if err != nil {
			return err
		}
		for d := range want {
			if !res.Values[d].Equal(want[d]) {
				return fmt.Errorf("plan: device %d diverges from the interpreter", d)
			}
		}
	}
	b := res.Breakdown
	fmt.Printf("%-9s step %8.2fms  compute %8.2fms  wire %8.2fms  exposed %8.2fms  async %d  in-flight %d%s\n",
		"plan", b.StepTime*1e3, b.Compute*1e3, b.CollectiveWire*1e3, b.Exposed*1e3,
		b.AsyncTransfers, b.PeakInFlight, checkMark(check))
	if attrib {
		fmt.Print(overlap.Attribute(res.Trace).Render())
	}
	if err := writeTraceArtifacts(res, "plan:"+plan.Fingerprint, plan.Devices, traceFile, traceOut); err != nil {
		return err
	}
	return nil
}

// writeTraceArtifacts renders a run's RunTrace artifact — the one code
// path both exports share — writing the stable JSON to traceOut and the
// Chrome trace to traceFile when requested.
func writeTraceArtifacts(res *overlap.RunResult, model string, devices int, traceFile, traceOut string) error {
	if traceFile == "" && traceOut == "" {
		return nil
	}
	trace := overlap.NewRunTrace(res.RunID, "run", res.Trace)
	trace.Model = model
	trace.Devices = devices
	trace.StepMS = res.Breakdown.StepTime * 1e3
	if traceOut != "" {
		data, err := trace.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("          wrote run trace %s to %s\n", trace.ID, traceOut)
	}
	if traceFile != "" {
		data, err := trace.ChromeTrace()
		if err != nil {
			return err
		}
		if err := os.WriteFile(traceFile, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("          wrote %d trace events to %s (run %s)\n", len(res.Trace), traceFile, trace.ID)
	}
	return nil
}

// runMode builds the miniature layer graph, applies the pipeline the
// mode names, executes it on the runtime, and prints the measured
// breakdown (plus, with -attrib, where each collective's wire time hid).
func runMode(cfg models.Config, mode string, devices int, timeScale float64, traceFile, traceOut string, check, attrib bool, faults *overlap.FaultPlan, deadline time.Duration) error {
	c, err := overlap.BuildLayerStep(cfg)
	if err != nil {
		return err
	}
	spec := overlap.TPUv4()
	switch mode {
	case "baseline":
		// Keep the blocking collectives.
	case "rolled":
		opts := core.Options{Spec: spec, Rolled: true, UseCostModel: false, Scheduler: core.SchedulerNone, KernelSplitK: kernelSplitK}
		if _, err := core.Apply(c, opts); err != nil {
			return err
		}
	case "overlap":
		// The miniature's shapes would not pass the cost model (which
		// prices the full-size model); decompose unconditionally.
		opts := overlap.DefaultOptions(spec)
		opts.UseCostModel = false
		opts.KernelSplitK = kernelSplitK
		if _, err := overlap.Apply(c, opts); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mode %q (want baseline, rolled, overlap, or all)", mode)
	}

	args := randomArgs(c)
	ropts := overlap.RunOptions{Spec: spec, TimeScale: timeScale, Faults: faults, Transport: transportKind}
	overlapMode := mode == "overlap"
	writeTrace := traceFile != "" && overlapMode
	writeArtifact := traceOut != "" && overlapMode
	if writeTrace || writeArtifact || attrib {
		ropts.Trace = true
	}
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	res, err := overlap.RunContext(ctx, c, devices, args, ropts)
	if err != nil {
		return err
	}

	if check {
		want, err := overlap.Interpret(c, devices, args)
		if err != nil {
			return err
		}
		for d := range want {
			if !res.Values[d].Equal(want[d]) {
				return fmt.Errorf("%s: device %d diverges from the interpreter", mode, d)
			}
		}
	}

	b := res.Breakdown
	fmt.Printf("%-9s step %8.2fms  compute %8.2fms  wire %8.2fms  exposed %8.2fms  async %d  in-flight %d%s\n",
		mode, b.StepTime*1e3, b.Compute*1e3, b.CollectiveWire*1e3, b.Exposed*1e3,
		b.AsyncTransfers, b.PeakInFlight, checkMark(check))

	if attrib {
		fmt.Print(overlap.Attribute(res.Trace).Render())
	}
	chromeOut, artifactOut := "", ""
	if writeTrace {
		chromeOut = traceFile
	}
	if writeArtifact {
		artifactOut = traceOut
	}
	if err := writeTraceArtifacts(res, cfg.Name, devices, chromeOut, artifactOut); err != nil {
		return err
	}
	return nil
}

// randomArgs supplies one replicated random tensor per parameter: the
// runtime and interpreter only need well-shaped inputs, and replication
// keeps the decomposed programs' slice bookkeeping meaningful.
func randomArgs(c *overlap.Computation) [][]*tensor.Tensor {
	rng := rand.New(rand.NewSource(42))
	params := c.Parameters()
	args := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		args[i] = []*tensor.Tensor{tensor.Rand(rng, p.Shape...)}
	}
	return args
}

func checkMark(check bool) string {
	if check {
		return "  [checked]"
	}
	return ""
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "overlaprun: %v\n", err)
	os.Exit(1)
}
