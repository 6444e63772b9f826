package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"overlap"
	"overlap/cmd/internal/cli"
	"overlap/internal/models"
	"overlap/internal/train"
)

// setupTrain is `overlap train`: execute end-to-end training steps —
// forward, backward, SGD update in one SPMD program — on the concurrent
// runtime, overlapping the gradient communication the backward pass
// produces with its remaining computation. Two partitioning strategies
// exercise the paper's §2.2 observation that differentiation turns
// forward AllGathers into backward ReduceScatters:
//
//   - megatron: weights row-sharded on the ring; the backward
//     weight-gradient einsums hide each layer's gradient collective.
//   - ddp: weights replicated, batch sharded; per-weight gradient
//     AllReduces are bucketed (-bucket-bytes) and lowered to an
//     asynchronous ring all-reduce that rides the links while later
//     layers' backward einsums still compute.
//
// Every step can be cross-checked bit for bit against the lockstep
// interpreter (-check), and the dyadic training fixtures make
// first-step gradients byte-identical across every overlap
// configuration. Every mode injects wire at one clock, measured on the
// untransformed step.
func setupTrain(fs *flag.FlagSet, stdout, _ io.Writer) func() error {
	f := cli.Defaults()
	f.Register(fs, "model", "devices", "dim", "mode",
		"kernel-splitk", "fault", "fault-seed", "deadline", "check",
		"attrib", "trace-out", "metrics-out")
	layers := fs.Int("layers", 2, "FFN blocks in the training step (restores a multi-layer backward pass)")
	strategy := fs.String("strategy", "ddp", "partitioning strategy: megatron or ddp")
	steps := fs.Int("steps", 3, "SGD steps; each step's updated weights feed the next")
	lr := fs.Float64("lr", 0, "learning rate; must be a power of two (0 = 1/16)")
	bucketBytes := fs.Int64("bucket-bytes", 32<<10, "gradient bucket-size bound for the ddp overlap mode (0 = no bucketing)")
	seed := fs.Int64("seed", 1, "seed for the deterministic dyadic training data")

	return func() error {
		strat, err := overlap.ParseTrainStrategy(*strategy)
		if err != nil {
			return err
		}
		pipelines, err := modes(f.Mode)
		if err != nil {
			return err
		}
		ropts, err := runOptions(f, stdout)
		if err != nil {
			return err
		}
		base, err := models.ByName(f.Model)
		if err != nil {
			return err
		}
		cfg, err := train.FromModel(base, f.Devices, f.Dim, *layers, strat)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s training step: %d devices, %d layers, model %d, hidden %d, %d tokens, strategy %s\n",
			f.Model, cfg.Devices, cfg.Layers, cfg.Model, cfg.Hidden, cfg.Tokens, cfg.Strategy)

		return around(f, stdout, func() error {
			step, err := overlap.BuildTrainStep(cfg)
			if err != nil {
				return err
			}
			clock, err := f.Clock(step.Comp, cfg.Devices)
			if err != nil {
				return err
			}
			printClock(stdout, clock, "measured on the untransformed step")
			// -trace-out names one file: the overlap mode's final step
			// when that mode ran, else the first mode's.
			var trace *overlap.RunTrace
			for _, mode := range pipelines {
				ctx, cancel := f.Context()
				res, err := overlap.Train(ctx, cfg, overlap.TrainOptions{
					Pipeline:    trainPipeline(mode, strat, *bucketBytes, f.KernelSplitK),
					Steps:       *steps,
					LR:          *lr,
					Seed:        *seed,
					TimeScale:   clock,
					Check:       f.Check,
					Attribution: f.Attrib || f.TraceOut != "",
					Faults:      ropts.Faults,
				})
				cancel()
				if err != nil {
					return fmt.Errorf("%s: %w", mode, err)
				}
				reportTrain(stdout, mode, res, f.Attrib)
				if res.Trace != nil && (mode == "overlap" || trace == nil) {
					trace = res.Trace
				}
			}
			if f.TraceOut == "" || trace == nil {
				return nil
			}
			trace.Model = f.Model
			data, err := trace.EncodeJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(f.TraceOut, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote run trace %s to %s\n", trace.ID, f.TraceOut)
			return nil
		})
	}
}

// trainPipeline maps a mode to the overlap pipeline it trains under:
// nil keeps the blocking baseline, "rolled" emits the decomposition as
// a blocking counted loop (the paper's no-overlap form), "overlap"
// decomposes and schedules — bucketing the gradient all-reduces for
// ddp, rematerializing the shared forward gathers for megatron so the
// backward weight-gradient einsums own their collectives.
func trainPipeline(mode string, strat overlap.TrainStrategy, bucketBytes int64, splitK int) *overlap.Options {
	if mode == "baseline" {
		return nil
	}
	opts := overlap.DefaultOptions(overlap.TPUv4())
	// Miniature shapes never clear the full-size cost model.
	opts.UseCostModel = false
	opts.RematerializeGathers = true
	opts.Rolled = mode == "rolled"
	opts.KernelSplitK = splitK
	if strat == overlap.TrainDDP && mode == "overlap" {
		opts.GradBucketBytes = bucketBytes
	}
	return &opts
}

// reportTrain prints one mode's steps, loss verdict and gradient
// buckets and, with attrib, the final step's overlap attribution: the
// deterministic modeled per-bucket rollup first (one row per gradient
// bucket, the hiding einsums named, "partially hidden" marking rows
// with nonzero hidden time), then the measured per-collective table.
func reportTrain(w io.Writer, mode string, res *overlap.TrainResult, attrib bool) {
	for i, st := range res.Steps {
		mark := ""
		if st.Checked {
			mark = "  [checked]"
		}
		fmt.Fprintf(w, "%-9s step %d  loss %12.6f  %8.2fms  grad %s%s\n",
			mode, i, st.Loss, st.StepSeconds*1e3, st.GradDigest[:12], mark)
	}
	if n := len(res.Steps); n > 1 {
		first, last := res.Steps[0].Loss, res.Steps[n-1].Loss
		verdict := "decreased"
		if last >= first {
			verdict = "DID NOT DECREASE"
		}
		fmt.Fprintf(w, "%-9s loss %s over %d steps: %.6f -> %.6f\n", mode, verdict, n, first, last)
	}
	for _, b := range res.Report.Buckets {
		fmt.Fprintf(w, "%-9s bucket %s: %d gradients, %d bytes\n", mode, b.Name, len(b.Members), b.Bytes)
	}
	if !attrib || res.Attribution == nil {
		return
	}
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
		fmt.Fprintf(w, "modeled   %s: wire %.3fms hidden %.3fms (%.0f%% hidden, %s) under %s\n",
			b.Name, b.Wire*1e3, b.Hidden*1e3, 100*b.HiddenFraction(), verdict, under)
	}
	if res.Modeled != nil {
		fmt.Fprintf(w, "modeled   overlap efficiency %.1f%%\n", 100*res.Modeled.OverlapEfficiency())
	}
	fmt.Fprint(w, res.Attribution.Render())
}
