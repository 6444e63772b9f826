// Command overlaptrain executes end-to-end training steps — forward,
// backward, SGD update in one SPMD program — on the concurrent
// goroutine runtime, overlapping the gradient communication the
// backward pass produces with its remaining computation.
//
// Two partitioning strategies exercise the paper's §2.2 observation
// that differentiation turns forward AllGathers into backward
// ReduceScatters:
//
//   - megatron: weights row-sharded on the ring; the backward
//     weight-gradient einsums hide each layer's gradient collective.
//   - ddp: weights replicated, batch sharded; per-weight gradient
//     AllReduces are bucketed (-bucket-bytes) and lowered to an
//     asynchronous ring all-reduce that rides the links while later
//     layers' backward einsums still compute.
//
// Every step can be cross-checked bit-for-bit against the lockstep
// interpreter (-check), and the dyadic training fixtures make first-step
// gradients byte-identical across every overlap configuration.
//
// Usage:
//
//	overlaptrain -strategy ddp -steps 3 -check            # bucketed DDP vs interpreter
//	overlaptrain -strategy megatron -mode all             # baseline, rolled, overlap
//	overlaptrain -bucket-bytes 16384 -attrib              # per-bucket overlap attribution
//	overlaptrain -json BENCH_train.json                   # machine-readable snapshot
//	overlaptrain -metrics-out train.prom                  # telemetry export
//	overlaptrain -fault delay:link:0-1:50ms -deadline 30s # chaos under a deadline
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"overlap"
	"overlap/internal/models"
	"overlap/internal/train"
)

func main() {
	// Keep this binary usable as a proc-transport worker (the transport
	// re-executes its parent); a no-op in ordinary invocations.
	overlap.MaybeTransportWorker()

	model := flag.String("model", "GPT_32B", "model name from Table 1 or Table 2 (miniaturized)")
	devices := flag.Int("devices", 4, "ring size (goroutine devices)")
	dim := flag.Int("dim", 8, "miniature per-head dimension (scales every tensor)")
	layers := flag.Int("layers", 2, "FFN blocks in the training step (restores a multi-layer backward pass)")
	strategy := flag.String("strategy", "ddp", "partitioning strategy: megatron or ddp")
	mode := flag.String("mode", "all", "baseline, rolled, overlap, or all")
	steps := flag.Int("steps", 3, "SGD steps; each step's updated weights feed the next")
	lr := flag.Float64("lr", 0, "learning rate; must be a power of two (0 = 1/64)")
	bucketBytes := flag.Int64("bucket-bytes", 32<<10, "gradient bucket-size bound for the ddp overlap mode (0 = no bucketing)")
	seed := flag.Int64("seed", 1, "seed for the deterministic dyadic training data")
	timeScale := flag.Float64("timescale", 2000, "wire-delay scale: modeled seconds sleep this many times longer")
	check := flag.Bool("check", false, "cross-check every step bitwise against the lockstep interpreter")
	attrib := flag.Bool("attrib", false, "print the final step's per-bucket/per-collective overlap attribution")
	jsonOut := flag.String("json", "", "write the machine-readable benchmark snapshot (BENCH_train.json schema) to this file")
	traceOut := flag.String("trace-out", "", "write the overlap mode's final-step run trace artifact (RunTrace JSON, readable by traceviz -trace-in) to this file")
	metricsOut := flag.String("metrics-out", "", "export telemetry to this file (Prometheus text, or JSON with a .json suffix)")
	kernelWorkers := flag.Int("kernel-workers", 0, "intra-op einsum kernel parallelism (0 = GOMAXPROCS); results are byte-identical for any value")
	kernelSplitK := flag.Int("kernel-splitk", 0, "split-K factor the rolled and overlap pipelines stamp on every einsum (0 = off); factors >= 2 reassociate the contraction deterministically")
	faultSpec := flag.String("fault", "", "inject faults, comma-separated: crash:dev:D[:K], drop:link:S-D[:K], dup:link:S-D[:K], delay:link:S-D:DUR[:JITTER]")
	faultSeed := flag.Int64("fault-seed", 0, "seed for fault-injection jitter (deterministic per seed)")
	deadline := flag.Duration("deadline", 0, "abort a run that exceeds this wall-clock with a structured error (0 = no deadline)")
	flag.Parse()

	overlap.SetKernelWorkers(*kernelWorkers)

	strat, err := overlap.ParseTrainStrategy(*strategy)
	if err != nil {
		fail(err)
	}
	faults, err := overlap.ParseFaults(*faultSpec)
	if err != nil {
		fail(err)
	}
	if faults != nil {
		faults.Seed = *faultSeed
		fmt.Printf("injecting faults: %s (seed %d)\n", faults, *faultSeed)
	}

	base, err := models.ByName(*model)
	if err != nil {
		fail(err)
	}
	cfg, err := train.FromModel(base, *devices, *dim, *layers, strat)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s training step: %d devices, %d layers, model %d, hidden %d, %d tokens, strategy %s\n",
		*model, cfg.Devices, cfg.Layers, cfg.Model, cfg.Hidden, cfg.Tokens, cfg.Strategy)

	modes := []string{"baseline", "rolled", "overlap"}
	if *mode != "all" {
		modes = []string{*mode}
	}

	out := benchOut{
		Model: *model, Devices: *devices, Dim: *dim, Layers: cfg.Layers,
		Strategy: cfg.Strategy.String(), Steps: *steps, TimeScale: *timeScale,
	}
	var runErr error
	var lastTrace *overlap.RunTrace
	for _, m := range modes {
		res, err := runMode(cfg, m, strat, *steps, *lr, *seed, *bucketBytes, *kernelSplitK, *timeScale, *check, *attrib, faults, *deadline)
		if err != nil {
			runErr = err
			break
		}
		out.Modes = append(out.Modes, benchMode{Name: m, Result: res})
		if res.Trace != nil && (m == "overlap" || lastTrace == nil) {
			lastTrace = res.Trace
			lastTrace.Model = *model
		}
	}

	if *traceOut != "" && lastTrace != nil {
		data, err := lastTrace.EncodeJSON()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote run trace %s to %s\n", lastTrace.ID, *traceOut)
	}

	// Telemetry and the JSON snapshot are written even when a run
	// failed: a chaos run's abort counters are exactly the point.
	if *metricsOut != "" {
		if err := overlap.Metrics().WriteFile(*metricsOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote telemetry to %s\n", *metricsOut)
	}
	if *jsonOut != "" && len(out.Modes) > 0 {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote benchmark snapshot to %s\n", *jsonOut)
	}
	if runErr != nil {
		fail(runErr)
	}
}

// benchOut is the BENCH_train.json schema: the configuration plus one
// train.Result per executed mode (per-step losses, bitwise digests,
// knobs, and the final step's bucket attribution).
type benchOut struct {
	Model     string      `json:"model"`
	Devices   int         `json:"devices"`
	Dim       int         `json:"dim"`
	Layers    int         `json:"layers"`
	Strategy  string      `json:"strategy"`
	Steps     int         `json:"steps"`
	TimeScale float64     `json:"timescale"`
	Modes     []benchMode `json:"modes"`
}

type benchMode struct {
	Name   string        `json:"name"`
	Result *train.Result `json:"result"`
}

// pipelineFor maps a CLI mode to the overlap pipeline it runs: nil
// keeps the blocking baseline, "rolled" emits the decomposition as a
// blocking counted loop (the paper's no-overlap form), "overlap"
// decomposes and schedules — bucketing the gradient all-reduces for
// ddp, rematerializing the shared forward gathers for megatron so the
// backward weight-gradient einsums own their collectives.
func pipelineFor(mode string, strat overlap.TrainStrategy, bucketBytes int64, splitK int) (*overlap.Options, error) {
	switch mode {
	case "baseline":
		return nil, nil
	case "rolled", "overlap":
		opts := overlap.DefaultOptions(overlap.TPUv4())
		// Miniature shapes never clear the full-size cost model.
		opts.UseCostModel = false
		opts.RematerializeGathers = true
		opts.Rolled = mode == "rolled"
		opts.KernelSplitK = splitK
		if strat == overlap.TrainDDP && mode == "overlap" {
			opts.GradBucketBytes = bucketBytes
		}
		return &opts, nil
	default:
		return nil, fmt.Errorf("unknown mode %q (want baseline, rolled, overlap, or all)", mode)
	}
}

func runMode(cfg overlap.TrainConfig, mode string, strat overlap.TrainStrategy, steps int, lr float64, seed, bucketBytes int64, splitK int, timeScale float64, check, attrib bool, faults *overlap.FaultPlan, deadline time.Duration) (*overlap.TrainResult, error) {
	pipeline, err := pipelineFor(mode, strat, bucketBytes, splitK)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	res, err := overlap.Train(ctx, cfg, overlap.TrainOptions{
		Pipeline:    pipeline,
		Steps:       steps,
		LR:          lr,
		Seed:        seed,
		TimeScale:   timeScale,
		Check:       check,
		Attribution: true, // the final step's attribution feeds -attrib and -json
		Faults:      faults,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", mode, err)
	}

	for i, st := range res.Steps {
		mark := ""
		if st.Checked {
			mark = "  [checked]"
		}
		fmt.Printf("%-9s step %d  loss %12.6f  %8.2fms  grad %s%s\n",
			mode, i, st.Loss, st.StepSeconds*1e3, st.GradDigest[:12], mark)
	}
	if n := len(res.Steps); n > 1 {
		first, last := res.Steps[0].Loss, res.Steps[n-1].Loss
		verdict := "decreased"
		if last >= first {
			verdict = "DID NOT DECREASE"
		}
		fmt.Printf("%-9s loss %s over %d steps: %.6f -> %.6f\n", mode, verdict, n, first, last)
	}
	if len(res.Report.Buckets) > 0 {
		for _, b := range res.Report.Buckets {
			fmt.Printf("%-9s bucket %s: %d gradients, %d bytes\n", mode, b.Name, len(b.Members), b.Bytes)
		}
	}
	if attrib && res.Attribution != nil {
		printAttribution(res)
	}
	return res, nil
}

// printAttribution renders the final step's overlap attribution: the
// deterministic modeled per-bucket rollup first (one row per gradient
// bucket, the hiding einsums named, "partially hidden" marking rows
// with nonzero hidden time), then the measured per-collective table.
func printAttribution(res *overlap.TrainResult) {
	for _, b := range res.ModeledBuckets {
		under, verdict := "", "exposed"
		for i, u := range b.Under {
			if i == 2 {
				under += ", …"
				break
			}
			if i > 0 {
				under += ", "
			}
			under += u.Name
		}
		if b.Hidden > 0 {
			verdict = "partially hidden"
			if b.Exposed == 0 {
				verdict = "fully hidden"
			}
		}
		fmt.Printf("modeled   %s: wire %.3fms hidden %.3fms (%.0f%% hidden, %s) under %s\n",
			b.Name, b.Wire*1e3, b.Hidden*1e3, 100*b.HiddenFraction(), verdict, under)
	}
	if res.Modeled != nil {
		fmt.Printf("modeled   overlap efficiency %.1f%%\n", 100*res.Modeled.OverlapEfficiency())
	}
	fmt.Print(res.Attribution.Render())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "overlaptrain: %v\n", err)
	os.Exit(1)
}
