// Command overlaptune autotunes a Table 1/2 model miniature: it
// enumerates every overlap-pipeline variant, ranks them with the timing
// simulator, executes the best few for real on the concurrent goroutine
// runtime, and prints the winning configuration, the
// predicted-vs-measured table, the fitted machine calibration, and the
// decision-cache status. Tuning the same miniature again answers from
// the cache without executing anything.
//
// Usage:
//
//	overlaptune -model GPT_32B -devices 4
//	overlaptune -model GLaM_1T -devices 8 -topk 4 -no-cache
//	overlaptune -model GPT_32B -cache /tmp/tune.json   # private cache
//	overlaptune -model GPT_32B -metrics-out tune.prom  # telemetry export
//	overlaptune -model GPT_32B -serve :9090            # live /metrics while tuning
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"overlap"
	"overlap/internal/models"
	"overlap/internal/tensor"
)

func main() {
	// Keep this binary usable as a proc-transport worker (the transport
	// re-executes its parent); a no-op in ordinary invocations.
	overlap.MaybeTransportWorker()

	model := flag.String("model", "GPT_32B", "model name from Table 1 or Table 2")
	devices := flag.Int("devices", 4, "ring size (goroutine devices)")
	dim := flag.Int("dim", 8, "miniature per-head dimension (scales every tensor)")
	topK := flag.Int("topk", 3, "candidates to execute for real after simulator ranking")
	timeScale := flag.Float64("timescale", 500, "wire-delay scale: modeled seconds sleep this many times longer")
	repeats := flag.Int("repeats", 1, "measured repetitions per executed candidate (minimum kept)")
	cachePath := flag.String("cache", "", "decision cache file (default: per-user cache dir)")
	noCache := flag.Bool("no-cache", false, "skip the decision cache entirely")
	noCalibrate := flag.Bool("no-calibrate", false, "skip fitting the machine spec to measured breakdowns")
	metricsOut := flag.String("metrics-out", "", "export telemetry to this file (Prometheus text, or JSON with a .json suffix)")
	serveAddr := flag.String("serve", "", "serve a live /metrics endpoint at this address and stay up after tuning")
	kernelWorkers := flag.Int("kernel-workers", 0, "intra-op einsum kernel parallelism (0 = GOMAXPROCS); keyed into the decision cache")
	planOut := flag.String("plan-out", "", "write the compiled Plan artifact (tuned, scheduled program as JSON) to this file; overlaprun -plan-in and the overlapd daemon execute the same artifact")
	flag.Parse()

	overlap.SetKernelWorkers(*kernelWorkers)

	if *serveAddr != "" {
		_, addr, err := overlap.ServeMetrics(*serveAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("serving telemetry at http://%s/metrics\n", addr)
	}

	cfg, err := models.ByName(*model)
	if err != nil {
		fail(err)
	}
	mini, err := overlap.Miniature(cfg, *devices, *dim)
	if err != nil {
		fail(err)
	}
	c, err := overlap.BuildLayerStep(mini)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s: %d devices, model dim %d, ff dim %d, %d tokens\n",
		mini.Name, *devices, mini.ModelDim, mini.FFDim, mini.Tokens())

	res, err := overlap.Autotune(c, *devices, randomArgs(c), overlap.AutotuneOptions{
		Spec:         overlap.TPUv4(),
		TopK:         *topK,
		TimeScale:    *timeScale,
		Repeats:      *repeats,
		CachePath:    *cachePath,
		DisableCache: *noCache,
		Calibrate:    !*noCalibrate,
	})
	if err != nil {
		fail(err)
	}
	report(res)

	if *planOut != "" {
		plan, err := overlap.PlanFromResult(c, *devices, res)
		if err != nil {
			fail(err)
		}
		data, err := plan.EncodeJSON()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*planOut, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote compiled plan to %s (fingerprint %s)\n", *planOut, plan.Fingerprint)
	}

	if *metricsOut != "" {
		if err := overlap.Metrics().WriteFile(*metricsOut); err != nil {
			fail(err)
		}
		fmt.Printf("wrote telemetry to %s\n", *metricsOut)
	}
	if *serveAddr != "" {
		fmt.Println("tuning done; serving /metrics until interrupted")
		select {}
	}
}

func report(res *overlap.AutotuneResult) {
	switch {
	case res.CacheHit:
		fmt.Printf("cache: warm hit (%s) — 0 runtime executions\n", res.CachePath)
	case res.CachePath != "":
		fmt.Printf("cache: cold (%s) — decision stored\n", res.CachePath)
	default:
		fmt.Println("cache: disabled")
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
		fmt.Printf("searched %d candidates (%d unique programs), executed %d (%d runs)\n",
			len(res.Candidates), unique, executed, res.Executions)
		fmt.Printf("  %-60s %12s %12s\n", "candidate", "predicted", "measured")
		for _, cand := range res.Candidates {
			if !cand.Executed {
				continue
			}
			mark := ""
			if cand.Name == res.BestName {
				mark = "  <- winner"
			}
			fmt.Printf("  %-60s %10.3fms %10.3fms%s\n",
				cand.Name, cand.Predicted.StepTime*1e3, cand.MeasuredWall*1e3, mark)
		}
	}

	if res.BestIsBaseline {
		fmt.Println("winner: baseline — leaving the blocking program untouched is fastest here")
	} else {
		fmt.Printf("winner: %s\n", res.BestName)
	}
	fmt.Printf("        predicted %.3fms (modeled), measured %.3fms (wall)\n",
		res.PredictedWall*1e3, res.MeasuredWall*1e3)

	cal := res.Calibration
	if res.Residual >= 0 {
		fmt.Printf("calibration: compute x%.3g, wire x%.3g, overhead x%.3g; residual %.1f%%\n",
			cal.ComputeScale, cal.WireScale, cal.OverheadScale, res.Residual*100)
	}
	fmt.Printf("key: %s\n", res.Fingerprint)
}

// randomArgs supplies one replicated random tensor per parameter, the
// same convention overlaprun uses.
func randomArgs(c *overlap.Computation) [][]*tensor.Tensor {
	rng := rand.New(rand.NewSource(42))
	params := c.Parameters()
	args := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		args[i] = []*tensor.Tensor{tensor.Rand(rng, p.Shape...)}
	}
	return args
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "overlaptune: %v\n", err)
	os.Exit(1)
}
