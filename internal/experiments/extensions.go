package experiments

import (
	"fmt"
	"text/tabwriter"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/sim"
)

// The experiments in this file go beyond the paper's evaluation section:
// ablations its design discussion implies (rolled vs expanded emission,
// peak-memory cost of overlapping) and the studies its §7 leaves as
// future work (inference workload sweep, composition with pipeline
// parallelism).

// Memory reports the per-device peak-memory estimate of one layer step
// before and after the overlap pipeline: the §5.2/§5.4.1 design
// constraint that overlapping must not blow up liveness, quantified.
func Memory(spec machine.Spec) (string, error) {
	opts := core.DefaultOptions(spec)
	out := "Extension: per-device peak memory of one layer step (GiB)\n"
	return out + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "model\tbaseline\toverlapped\tgrowth")
		for _, cfg := range models.Table2() {
			base, err := models.BuildLayerStep(cfg)
			if err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
				continue
			}
			basePeak := hlo.PeakMemory(base).PeakBytes
			over, err := models.BuildLayerStep(cfg)
			if err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
				continue
			}
			if _, err := core.Apply(over, opts); err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
				continue
			}
			overPeak := hlo.PeakMemory(over).PeakBytes
			fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%+.1f%%\n",
				cfg.Name, gib(basePeak), gib(overPeak),
				100*(float64(overPeak)/float64(basePeak)-1))
		}
	}), nil
}

func gib(b int64) float64 { return float64(b) / (1 << 30) }

// Rolled contrasts the three emission levels of one site-rich layer:
// blocking baseline, rolled Looped CollectiveEinsum (decomposed but not
// overlappable, with the per-iteration aliasing copies), and the
// expanded + scheduled form the paper deploys. It quantifies why the
// paper's implementation unrolls and software-pipelines the loop.
func Rolled(spec machine.Spec) (string, error) {
	out := "Extension: rolled loop vs expanded+scheduled emission (per-layer step time)\n"
	return out + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "model\tbaseline\trolled loop\texpanded+scheduled\tspeedup (expanded vs rolled)")
		for _, cfg := range models.Table2()[:3] {
			times := make([]float64, 3)
			for i, mode := range []string{"baseline", "rolled", "expanded"} {
				c, err := models.BuildLayerStep(cfg)
				if err != nil {
					fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
					continue
				}
				opts := core.DefaultOptions(spec)
				opts.Rolled = mode == "rolled"
				if mode != "baseline" {
					if _, err := core.Apply(c, opts); err != nil {
						fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
						continue
					}
				}
				bd, err := sim.Simulate(c, cfg.Mesh().NumDevices(), spec)
				if err != nil {
					fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
					continue
				}
				times[i] = bd.StepTime
			}
			fmt.Fprintf(w, "%s\t%.1f ms\t%.1f ms\t%.1f ms\t%.2fx\n",
				cfg.Name, 1e3*times[0], 1e3*times[1], 1e3*times[2], times[1]/times[2])
		}
	}), nil
}

// InferenceSweep is the thorough §7.1 study the paper leaves to future
// work: serving latency improvement across batch sizes of the 2-way
// model-parallel MLP.
func InferenceSweep(spec machine.Spec) (string, error) {
	out := "Extension (§7.1 future work): inference latency improvement across batch sizes\n"
	return out + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "batch rows\tbaseline\toverlapped\timprovement")
		for _, e := range []int{128, 512, 1344, 2688, 5376, 10752} {
			base := buildInferenceChain(8, e, 4096, 16384)
			bb, err := sim.Simulate(base, 2, spec)
			if err != nil {
				fmt.Fprintf(w, "%d\terror: %v\n", e, err)
				continue
			}
			over := buildInferenceChain(8, e, 4096, 16384)
			opts := core.DefaultOptions(spec)
			opts.UseCostModel = false
			if _, err := core.Apply(over, opts); err != nil {
				fmt.Fprintf(w, "%d\terror: %v\n", e, err)
				continue
			}
			ob, err := sim.Simulate(over, 2, spec)
			if err != nil {
				fmt.Fprintf(w, "%d\terror: %v\n", e, err)
				continue
			}
			fmt.Fprintf(w, "%d\t%.3f ms\t%.3f ms\t%.2fx\n",
				e, 1e3*bb.StepTime, 1e3*ob.StepTime, bb.StepTime/ob.StepTime)
		}
	}), nil
}

// GPU reproduces the §7.2 generalization argument: the same graphs and
// passes on a GPU-cluster-like machine model. NVLink's higher
// bandwidth-to-FLOPS ratio leaves less to hide, so the speedups shrink
// but stay positive — "the idea can also be applied to other hardware
// ML systems, such as GPU clusters".
func GPU(_ machine.Spec) (string, error) {
	gpu := machine.GPUCluster()
	opts := core.DefaultOptions(gpu)
	out := "Extension (§7.2): the technique on a GPU-cluster-like machine model\n"
	return out + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "model\tbaseline util\toverlap util\tspeedup")
		for _, cfg := range models.Table2()[:4] {
			comp, err := Compare(cfg, opts)
			if err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
				continue
			}
			fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.2fx\n",
				cfg.Name, 100*comp.Baseline.Utilization, 100*comp.Overlapped.Utilization, comp.Speedup())
		}
	}), nil
}

// Pipeline composes the technique with pipeline parallelism (§7.3): a
// GPipe-style schedule with P stages and M microbatches, where every
// stage internally uses intra-layer model parallelism. Stage time comes
// from the simulated layer step (scaled to the microbatch); the overall
// step is (M + P - 1) stage slots plus the inter-stage activation
// transfers, so the intra-layer speedup carries through diluted by the
// pipeline bubble.
func Pipeline(spec machine.Spec) (string, error) {
	const stages, micro = 4, 16
	cfg := models.Table2()[0] // GPT_32B shapes per stage
	layersPerStage := cfg.Layers / stages

	run := func(overlapOn bool) (float64, error) {
		c, err := models.BuildLayerStep(cfg)
		if err != nil {
			return 0, err
		}
		if overlapOn {
			if _, err := core.Apply(c, core.DefaultOptions(spec)); err != nil {
				return 0, err
			}
		}
		bd, err := sim.Simulate(c, cfg.Mesh().NumDevices(), spec)
		if err != nil {
			return 0, err
		}
		// One microbatch processes 1/micro of the batch: compute and
		// communication both scale with the token count.
		stageSlot := bd.StepTime * float64(layersPerStage) / float64(micro)
		// Inter-stage activation send per microbatch boundary.
		actBytes := int64(cfg.Tokens()/micro/cfg.MeshY) * int64(cfg.ModelDim/cfg.MeshX) * 4
		send := spec.TransferTime(actBytes, 1)
		slots := float64(micro + stages - 1)
		return slots * (stageSlot + send), nil
	}

	baseline, err := run(false)
	if err != nil {
		return "", err
	}
	overlapped, err := run(true)
	if err != nil {
		return "", err
	}
	bubble := float64(stages-1) / float64(micro+stages-1)
	return fmt.Sprintf(
		"Extension (§7.3): composition with pipeline parallelism (GPipe, %d stages x %d microbatches, GPT_32B stages)\n"+
			"baseline step  %.1f ms\noverlapped step %.1f ms\nspeedup %.2fx (pipeline bubble fraction %.0f%%)\n",
		stages, micro, 1e3*baseline, 1e3*overlapped, baseline/overlapped, 100*bubble), nil
}
