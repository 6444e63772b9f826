package experiments

import (
	"fmt"
	"text/tabwriter"

	"overlap/internal/core"
	"overlap/internal/machine"
	"overlap/internal/models"
)

// The experiments in this file go beyond the paper's evaluation section:
// ablations its design discussion implies (rolled vs expanded emission,
// peak-memory cost of overlapping) and the studies its §7 leaves as
// future work (inference workload sweep, composition with pipeline
// parallelism).

// memory reports the per-device peak-memory estimate of one layer step
// before and after the overlap pipeline: the §5.2/§5.4.1 design
// constraint that overlapping must not blow up liveness, quantified.
func memory(spec machine.Spec) (Result, error) {
	text, _ := compareTable("Extension: per-device peak memory of one layer step (GiB)",
		"model\tbaseline\toverlapped\tgrowth", models.Table2(), core.DefaultOptions(spec),
		func(c Comparison) string {
			base, over := c.Baseline.PeakBytes, c.Overlapped.PeakBytes
			return fmt.Sprintf("%.2f\t%.2f\t%+.1f%%", gib(base), gib(over), 100*(float64(over)/float64(base)-1))
		})
	return report(text), nil
}

func gib(b int64) float64 { return float64(b) / (1 << 30) }

// rolled contrasts the three emission levels of one site-rich layer:
// blocking baseline, rolled Looped CollectiveEinsum (decomposed but not
// overlappable, with the per-iteration aliasing copies), and the
// expanded + scheduled form the paper deploys. It quantifies why the
// paper's implementation unrolls and software-pipelines the loop.
func rolled(spec machine.Spec) (Result, error) {
	return report(modelTable("Extension: rolled loop vs expanded+scheduled emission (per-layer step time)",
		"model\tbaseline\trolled loop\texpanded+scheduled\tspeedup (expanded vs rolled)", models.Table2()[:3],
		func(cfg models.Config) (string, error) {
			times := make([]float64, 3)
			for i, mode := range []string{"baseline", "rolled", "expanded"} {
				opts := core.DefaultOptions(spec)
				opts.Rolled = mode == "rolled"
				run, err := RunModel(cfg, opts, mode != "baseline")
				if err != nil {
					return "", err
				}
				times[i] = run.Breakdown.StepTime
			}
			return fmt.Sprintf("%.1f ms\t%.1f ms\t%.1f ms\t%.2fx",
				1e3*times[0], 1e3*times[1], 1e3*times[2], times[1]/times[2]), nil
		})), nil
}

// inferenceSweep is the thorough §7.1 study the paper leaves to future
// work: serving latency improvement across batch sizes of the 2-way
// model-parallel MLP.
func inferenceSweep(spec machine.Spec) (Result, error) {
	text := "Extension (§7.1 future work): inference latency improvement across batch sizes\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "batch rows\tbaseline\toverlapped\timprovement")
		for _, e := range []int{128, 512, 1344, 2688, 5376, 10752} {
			comp, err := compareInference(spec, 8, e)
			if err != nil {
				fmt.Fprintf(w, "%d\terror: %v\n", e, err)
				continue
			}
			fmt.Fprintf(w, "%d\t%.3f ms\t%.3f ms\t%.2fx\n",
				e, 1e3*comp.Baseline.Breakdown.StepTime, 1e3*comp.Overlapped.Breakdown.StepTime, comp.Speedup())
		}
	})
	return report(text), nil
}

// gpu reproduces the §7.2 generalization argument: the same graphs and
// passes on a GPU-cluster-like machine model. NVLink's higher
// bandwidth-to-FLOPS ratio leaves less to hide, so the speedups shrink
// but stay positive — "the idea can also be applied to other hardware
// ML systems, such as GPU clusters".
func gpu(machine.Spec) (Result, error) {
	text, _ := compareTable("Extension (§7.2): the technique on a GPU-cluster-like machine model",
		"model\tbaseline util\toverlap util\tspeedup", models.Table2()[:4], core.DefaultOptions(machine.GPUCluster()), utilization)
	return report(text), nil
}

// pipeline composes the technique with pipeline parallelism (§7.3): a
// GPipe-style schedule with P stages and M microbatches, where every
// stage internally uses intra-layer model parallelism. Stage time comes
// from the simulated layer step (scaled to the microbatch); the overall
// step is (M + P - 1) stage slots plus the inter-stage activation
// transfers, so the intra-layer speedup carries through diluted by the
// pipeline bubble.
func pipeline(spec machine.Spec) (Result, error) {
	const stages, micro = 4, 16
	cfg := models.Table2()[0] // GPT_32B shapes per stage
	layersPerStage := cfg.Layers / stages
	comp, err := Compare(cfg, core.DefaultOptions(spec))
	if err != nil {
		return Result{}, err
	}
	step := func(run Run) float64 {
		// One microbatch processes 1/micro of the batch: compute and
		// communication both scale with the token count.
		stageSlot := run.Breakdown.StepTime * float64(layersPerStage) / float64(micro)
		// Inter-stage activation send per microbatch boundary.
		actBytes := int64(cfg.Tokens()/micro/cfg.MeshY) * int64(cfg.ModelDim/cfg.MeshX) * 4
		send := spec.TransferTime(actBytes, 1)
		slots := float64(micro + stages - 1)
		return slots * (stageSlot + send)
	}
	baseline, overlapped := step(comp.Baseline), step(comp.Overlapped)
	bubble := float64(stages-1) / float64(micro+stages-1)
	return report(fmt.Sprintf(
		"Extension (§7.3): composition with pipeline parallelism (GPipe, %d stages x %d microbatches, GPT_32B stages)\n"+
			"baseline step  %.1f ms\noverlapped step %.1f ms\nspeedup %.2fx (pipeline bubble fraction %.0f%%)\n",
		stages, micro, 1e3*baseline, 1e3*overlapped, baseline/overlapped, 100*bubble)), nil
}
