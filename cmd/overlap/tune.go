package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"overlap"
	"overlap/cmd/internal/cli"
)

// setupTune is `overlap tune`: enumerate every overlap-pipeline variant
// of a miniature, rank them with the timing simulator, execute the best
// few for real on the concurrent runtime, and print the winning
// configuration, the predicted-vs-measured table, the fitted machine
// calibration, the clock the candidates ran at, and the plan store's
// status. Tuning the same miniature again answers from the stored plan
// without executing anything.
func setupTune(fs *flag.FlagSet, stdout, _ io.Writer) func() error {
	f := cli.Defaults()
	f.TopK = 3
	f.Register(fs, "model", "devices", "dim", "topk", "cache", "no-cache", "metrics-out", "serve")
	repeats := fs.Int("repeats", 1, "measured repetitions per executed candidate (minimum kept)")
	noCalibrate := fs.Bool("no-calibrate", false, "skip fitting the machine spec to measured breakdowns")
	planOut := fs.String("plan-out", "", "write the compiled Plan artifact (tuned, scheduled program as JSON) to this file; overlap run -plan-in and overlap serve execute the same artifact")

	return func() error {
		return around(f, stdout, func() error {
			mini, err := f.Miniature()
			if err != nil {
				return err
			}
			c, err := overlap.BuildLayerStep(mini)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: %d devices, model dim %d, ff dim %d, %d tokens\n",
				mini.Name, f.Devices, mini.ModelDim, mini.FFDim, mini.Tokens())

			res, err := overlap.Autotune(c, f.Devices, cli.Args(c), overlap.AutotuneOptions{
				Spec:         overlap.TPUv4(),
				TopK:         f.TopK,
				Repeats:      *repeats,
				CachePath:    f.Cache,
				DisableCache: f.NoCache,
				Calibrate:    !*noCalibrate,
			})
			if err != nil {
				return err
			}
			reportTune(stdout, res)
			if *planOut == "" {
				return nil
			}
			data, err := res.Plan.EncodeJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*planOut, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote compiled plan to %s (fingerprint %s)\n", *planOut, res.Plan.Fingerprint)
			return nil
		})
	}
}

func reportTune(w io.Writer, res *overlap.AutotuneResult) {
	plan := res.Plan
	switch {
	case res.CacheHit:
		fmt.Fprintf(w, "cache: warm hit (%s) — 0 runtime executions\n", res.CachePath)
	case res.CachePath != "":
		fmt.Fprintf(w, "cache: cold (%s) — plan stored\n", res.CachePath)
	default:
		fmt.Fprintln(w, "cache: disabled")
	}

	if !res.CacheHit {
		unique, executed := 0, 0
		for _, cand := range res.Candidates {
			if cand.Err == "" && cand.DuplicateOf == "" {
				unique++
			}
			if cand.Executed {
				executed++
			}
		}
		fmt.Fprintf(w, "searched %d candidates (%d unique programs), executed %d (%d runs)\n",
			len(res.Candidates), unique, executed, res.Executions)
		fmt.Fprintf(w, "  %-60s %12s %12s\n", "candidate", "predicted", "measured")
		for _, cand := range res.Candidates {
			if !cand.Executed {
				continue
			}
			mark := ""
			if cand.Name == plan.BestName {
				mark = "  <- winner"
			}
			fmt.Fprintf(w, "  %-60s %10.3fms %10.3fms%s\n",
				cand.Name, cand.Predicted.StepTime*1e3, cand.Measured.StepTime*1e3, mark)
		}
	}

	if plan.Baseline {
		fmt.Fprintln(w, "winner: baseline — leaving the blocking program untouched is fastest here")
	} else {
		fmt.Fprintf(w, "winner: %s\n", plan.BestName)
	}
	fmt.Fprintf(w, "        predicted %.3fms (modeled), measured %.3fms (executed)\n",
		plan.PredictedSec*1e3, plan.MeasuredSec*1e3)

	cal := plan.Calibration
	if plan.Residual >= 0 {
		fmt.Fprintf(w, "calibration: compute x%.3g, wire x%.3g, overhead x%.3g; residual %.1f%%\n",
			cal.ComputeScale, cal.WireScale, cal.OverheadScale, plan.Residual*100)
	}
	printClock(w, plan.TimeScale, "measured on the input")
	fmt.Fprintf(w, "key: %s\n", plan.Fingerprint)
}
