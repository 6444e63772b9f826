// Package experiments reproduces the paper's evaluation section: one
// runner per table and figure, each building the model's partitioned
// layer-step graph, applying (or not) the overlap pipeline, simulating
// it on the machine model, and reporting the same rows/series the paper
// plots. Absolute times come from the TPU-v4-like machine model; the
// reproduction target is the shape — who wins, by what factor, where
// the effect saturates.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/partition"
	"overlap/internal/sim"
	"overlap/internal/topology"
)

// Run is one simulated configuration of one model.
type Run struct {
	Config    models.Config
	Breakdown sim.Breakdown
	// DeviceFlops is the per-device model FLOP count of one layer step
	// (einsum work only, measured on the unmodified graph).
	DeviceFlops int64
	// Utilization is achieved FLOP/s over peak FLOP/s.
	Utilization float64
	// StepTime is the full-model training step estimate (layer time x
	// layer count).
	StepTime float64
	Report   core.Report
}

// RunModel builds cfg's layer graph, optionally applies the overlap
// pipeline, and simulates it.
func RunModel(cfg models.Config, opts core.Options, overlap bool) (Run, error) {
	c, err := models.BuildLayerStep(cfg)
	if err != nil {
		return Run{}, err
	}
	flops := deviceFlops(c)
	var report core.Report
	if overlap {
		report, err = core.Apply(c, opts)
		if err != nil {
			return Run{}, err
		}
	}
	bd, err := sim.Simulate(c, cfg.Mesh().NumDevices(), opts.Spec)
	if err != nil {
		return Run{}, err
	}
	util := 0.0
	if bd.StepTime > 0 {
		util = float64(flops) / opts.Spec.PeakFLOPS / bd.StepTime
	}
	return Run{
		Config:      cfg,
		Breakdown:   bd,
		DeviceFlops: flops,
		Utilization: util,
		StepTime:    bd.StepTime * float64(cfg.Layers),
		Report:      report,
	}, nil
}

// deviceFlops sums the einsum FLOPs of the per-device graph (fusions
// included), which is the model's useful work.
func deviceFlops(c *hlo.Computation) int64 {
	var total int64
	for _, in := range c.Instructions() {
		switch in.Op {
		case hlo.OpEinsum:
			f, _ := in.EinsumStats()
			total += f
		case hlo.OpFusion:
			for _, inner := range in.Body.Instructions() {
				if inner.Op == hlo.OpEinsum {
					f, _ := inner.EinsumStats()
					total += f
				}
			}
		}
	}
	return total
}

// Comparison holds the baseline/overlapped pair the evaluation figures
// are built from.
type Comparison struct {
	Baseline   Run
	Overlapped Run
}

// Speedup returns baseline step time over overlapped step time, or 0
// when the overlapped step time is zero (degenerate empty programs)
// rather than an Inf/NaN that would poison downstream series.
func (c Comparison) Speedup() float64 {
	if c.Overlapped.Breakdown.StepTime == 0 {
		return 0
	}
	return c.Baseline.Breakdown.StepTime / c.Overlapped.Breakdown.StepTime
}

// CommReduction returns the factor by which exposed communication time
// shrank (§6.1 reports 2-3x).
func (c Comparison) CommReduction() float64 {
	if c.Overlapped.Breakdown.Exposed == 0 {
		return 0
	}
	return c.Baseline.Breakdown.Exposed / c.Overlapped.Breakdown.Exposed
}

// Compare runs cfg without and with the overlap pipeline.
func Compare(cfg models.Config, opts core.Options) (Comparison, error) {
	base, err := RunModel(cfg, opts, false)
	if err != nil {
		return Comparison{}, err
	}
	over, err := RunModel(cfg, opts, true)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Baseline: base, Overlapped: over}, nil
}

func table(write func(w *tabwriter.Writer)) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	write(w)
	w.Flush()
	return b.String()
}

// Table1 prints the evaluated-applications table.
func Table1() string {
	return configTable("Table 1: evaluated applications", models.Table1())
}

// Table2 prints the weak-scaled GPT table.
func Table2() string {
	return configTable("Table 2: weak-scaled GPT models", models.Table2())
}

func configTable(title string, cfgs []models.Config) string {
	return title + "\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "model\tparams(B)\tlayers\td_model\td_ff\tbatch\tchips\tmesh\tarch")
		for _, c := range cfgs {
			fmt.Fprintf(w, "%s\t%.1f\t%d\t%d\t%d\t%d\t%d\t%dx%d\t%s\n",
				c.Name, c.ParamsB, c.Layers, c.ModelDim, c.FFDim, c.Batch, c.Chips, c.MeshX, c.MeshY, c.Arch)
		}
	})
}

// Fig1 reproduces the step-time breakdown of Figure 1: the fraction of
// the (baseline, non-overlapped) training step spent in communication.
func Fig1(spec machine.Spec) (string, error) {
	out := "Figure 1: training step time breakdown (baseline, no overlap)\n"
	var rows []string
	for _, cfg := range models.Table1() {
		run, err := RunModel(cfg, core.Options{Spec: spec}, false)
		if err != nil {
			return "", err
		}
		rows = append(rows, fmt.Sprintf("%s\t%.1f%%\t%.1f%%\t%.2f s",
			cfg.Name, 100*(1-run.Breakdown.CommFraction()), 100*run.Breakdown.CommFraction(), run.StepTime))
	}
	return out + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "model\tcompute\tcommunication\tstep time")
		for _, r := range rows {
			fmt.Fprintln(w, r)
		}
	}), nil
}

// Fig12 reproduces Figure 12: normalized throughput (fraction of peak
// FLOPS) with and without the proposed technique, plus the §6.1
// communication-cost-reduction columns.
func Fig12(spec machine.Spec) (string, []Comparison, error) {
	opts := core.DefaultOptions(spec)
	var comps []Comparison
	out := "Figure 12: performance of the evaluated applications\n"
	text := table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "model\tbaseline util\toverlap util\tspeedup\texposed comm reduction")
		for _, cfg := range models.Table1() {
			comp, err := Compare(cfg, opts)
			if err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
				continue
			}
			comps = append(comps, comp)
			fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.2fx\t%.1fx\n",
				cfg.Name,
				100*comp.Baseline.Utilization,
				100*comp.Overlapped.Utilization,
				comp.Speedup(),
				comp.CommReduction())
		}
	})
	return out + text, comps, nil
}

// Fig13 reproduces the weak-scaling study of Figure 13 on the Table 2
// GPT family.
func Fig13(spec machine.Spec) (string, []Comparison, error) {
	opts := core.DefaultOptions(spec)
	var comps []Comparison
	out := "Figure 13: performance of the weakly scaled GPT models\n"
	text := table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "model\tbaseline util\toverlap util\tspeedup")
		for _, cfg := range models.Table2() {
			comp, err := Compare(cfg, opts)
			if err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
				continue
			}
			comps = append(comps, comp)
			fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.2fx\n",
				cfg.Name, 100*comp.Baseline.Utilization, 100*comp.Overlapped.Utilization, comp.Speedup())
		}
	})
	return out + text, comps, nil
}

// ablation runs the Table 2 family under two option sets and reports
// stepTime(with)/stepTime(without) per model.
func ablation(spec machine.Spec, title string, with, without func(*core.Options)) (string, []float64, error) {
	var ratios []float64
	text := table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "model\twithout\twith\tnormalized time (with/without)")
		for _, cfg := range models.Table2() {
			optsOn := core.DefaultOptions(spec)
			with(&optsOn)
			optsOff := core.DefaultOptions(spec)
			without(&optsOff)
			on, err := RunModel(cfg, optsOn, true)
			if err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
				continue
			}
			off, err := RunModel(cfg, optsOff, true)
			if err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
				continue
			}
			r := on.Breakdown.StepTime / off.Breakdown.StepTime
			ratios = append(ratios, r)
			fmt.Fprintf(w, "%s\t%.3f ms\t%.3f ms\t%.3f\n",
				cfg.Name, 1e3*off.Breakdown.StepTime, 1e3*on.Breakdown.StepTime, r)
		}
	})
	return title + "\n" + text, ratios, nil
}

// Fig14 reproduces the loop-unrolling ablation of Figure 14.
func Fig14(spec machine.Spec) (string, []float64, error) {
	return ablation(spec, "Figure 14: effect of loop unrolling (per-layer step time)",
		func(o *core.Options) { o.Unroll = true },
		func(o *core.Options) { o.Unroll = false })
}

// Fig15 reproduces the bidirectional-transfer ablation of Figure 15.
func Fig15(spec machine.Spec) (string, []float64, error) {
	return ablation(spec, "Figure 15: effect of bidirectional data transfer (per-layer step time)",
		func(o *core.Options) { o.Bidirectional = true },
		func(o *core.Options) { o.Bidirectional = false })
}

// Fig16 reproduces the scheduler comparison of Figure 16.
func Fig16(spec machine.Spec) (string, []float64, error) {
	return ablation(spec, "Figure 16: bottom-up vs top-down scheduling (per-layer step time)",
		func(o *core.Options) { o.Scheduler = core.SchedulerBottomUp },
		func(o *core.Options) { o.Scheduler = core.SchedulerTopDown })
}

// Energy reproduces §6.4: energy consumption reduction equals the
// end-to-end step time ratio (computational units cannot sleep during
// synchronous communication).
func Energy(spec machine.Spec) (string, error) {
	opts := core.DefaultOptions(spec)
	out := "Section 6.4: energy consumption reduction (= step time ratio)\n"
	return out + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "model\tenergy reduction")
		for _, cfg := range models.Table1() {
			comp, err := Compare(cfg, opts)
			if err != nil {
				fmt.Fprintf(w, "%s\terror: %v\n", cfg.Name, err)
				continue
			}
			fmt.Fprintf(w, "%s\t%.2fx\n", cfg.Name, comp.Speedup())
		}
	}), nil
}

// buildInferenceChain constructs a multi-layer 2-way model-parallel
// MLP serving graph (the §7.1 recommendation-model stand-in): weights
// sharded across the 2-device ring and AllGathered before each einsum,
// activations replicated, layers chained so one layer's gathers can
// overlap the previous layer's computation.
func buildInferenceChain(layers, e, d, f int) *hlo.Computation {
	mesh := topology.NewRing(2)
	b := partition.NewBuilder("recsys_inference", mesh)
	act := b.Parameter("act", []int{e, d}, partition.ReplicatedSharding(2))
	cur := act
	for l := 0; l < layers; l++ {
		w1 := b.Parameter(fmt.Sprintf("w1_%d", l), []int{d, f}, partition.OnDim(2, 0, 0))
		w2 := b.Parameter(fmt.Sprintf("w2_%d", l), []int{f, d}, partition.OnDim(2, 0, 0))
		h := b.Einsum("ed,df->ef", cur, b.AllGather(w1, 0))
		cur = b.Einsum("ef,fd->ed", h, b.AllGather(w2, 0))
	}
	b.Comp.Tuple(cur.Instr)
	return b.Comp
}

// Inference reproduces the §7.1 case study: latency improvement of a
// small model served with 2-way intra-layer model parallelism. The
// overlap feature is force-enabled: the §5.5 estimate conservatively
// assumes loop prologues cannot be hidden, but in a chained multi-layer
// serving graph they overlap the previous layer's computation.
func Inference(spec machine.Spec) (string, Comparison, error) {
	const layers, e, d, f = 8, 2688, 4096, 16384
	base := buildInferenceChain(layers, e, d, f)
	flops := deviceFlops(base)
	bb, err := sim.Simulate(base, 2, spec)
	if err != nil {
		return "", Comparison{}, err
	}
	over := buildInferenceChain(layers, e, d, f)
	opts := core.DefaultOptions(spec)
	opts.UseCostModel = false
	report, err := core.Apply(over, opts)
	if err != nil {
		return "", Comparison{}, err
	}
	ob, err := sim.Simulate(over, 2, spec)
	if err != nil {
		return "", Comparison{}, err
	}
	comp := Comparison{
		Baseline:   Run{Breakdown: bb, DeviceFlops: flops, StepTime: bb.StepTime},
		Overlapped: Run{Breakdown: ob, DeviceFlops: flops, StepTime: ob.StepTime, Report: report},
	}
	out := fmt.Sprintf("Section 7.1: 2-way model-parallel inference latency (%d-layer MLP)\nbaseline %.3f ms  overlapped %.3f ms  improvement %.2fx\n",
		layers, 1e3*bb.StepTime, 1e3*ob.StepTime, comp.Speedup())
	return out, comp, nil
}
