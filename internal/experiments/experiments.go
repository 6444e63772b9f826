// Package experiments reproduces the paper's evaluation section: one
// runner per table and figure, listed in one table (see IDs), each
// building the model's partitioned layer-step graph, applying (or not)
// the overlap pipeline, simulating it on the machine model, and
// reporting the same rows/series the paper plots. Every simulated
// number comes through one routine, measure. Absolute times come from
// the TPU-v4-like machine model; the reproduction target is the shape —
// who wins, by what factor, where the effect saturates.
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

// Run is one simulated configuration of one program.
type Run struct {
	// Config is the model the program is one layer step of; zero for
	// the §7.1 serving chain, which is not a Table 1/2 model.
	Config    models.Config
	Breakdown sim.Breakdown
	// DeviceFlops is the per-device model FLOP count of one step
	// (einsum work only, measured on the unmodified graph).
	DeviceFlops int64
	// Utilization is achieved FLOP/s over peak FLOP/s.
	Utilization float64
	// StepTime is the full-model step estimate (simulated step time x
	// the model's layer count; the step itself for a whole program).
	StepTime float64
	// PeakBytes is the per-device peak-memory estimate of the program
	// as simulated (hlo.PeakMemory).
	PeakBytes int64
	Report    core.Report
}

// program is one graph the evaluation measures: how to build a fresh
// copy, the ring it runs on, and how many times a full step repeats it.
type program struct {
	cfg     models.Config
	devices int
	layers  int
	build   func() (*hlo.Computation, error)
}

// layerStep is one layer step of a Table 1/2 model.
func layerStep(cfg models.Config) program {
	return program{cfg: cfg, devices: cfg.Mesh().NumDevices(), layers: cfg.Layers,
		build: func() (*hlo.Computation, error) { return models.BuildLayerStep(cfg) }}
}

// measure builds a fresh copy of p, applies the overlap pipeline under
// opts when overlap is set, and simulates it on opts.Spec. It is the one
// build → apply → simulate path: every experiment's numbers come
// through here.
func measure(p program, opts core.Options, overlap bool) (Run, error) {
	c, err := p.build()
	if err != nil {
		return Run{}, err
	}
	run := Run{Config: p.cfg, DeviceFlops: deviceFlops(c)}
	if overlap {
		if run.Report, err = core.Apply(c, opts); err != nil {
			return Run{}, err
		}
	}
	if run.Breakdown, err = sim.Simulate(c, p.devices, opts.Spec); err != nil {
		return Run{}, err
	}
	if t := run.Breakdown.StepTime; t > 0 {
		run.Utilization = float64(run.DeviceFlops) / opts.Spec.PeakFLOPS / t
	}
	run.StepTime = run.Breakdown.StepTime * float64(p.layers)
	run.PeakBytes = hlo.PeakMemory(c).PeakBytes
	return run, nil
}

// RunModel builds cfg's layer graph, optionally applies the overlap
// pipeline, and simulates it.
func RunModel(cfg models.Config, opts core.Options, overlap bool) (Run, error) {
	return measure(layerStep(cfg), opts, overlap)
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

// compare measures p without and with the overlap pipeline.
func compare(p program, opts core.Options) (Comparison, error) {
	base, err := measure(p, opts, false)
	if err != nil {
		return Comparison{}, err
	}
	over, err := measure(p, opts, true)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Baseline: base, Overlapped: over}, nil
}

// Compare runs cfg without and with the overlap pipeline.
func Compare(cfg models.Config, opts core.Options) (Comparison, error) {
	return compare(layerStep(cfg), opts)
}

func table(write func(w *tabwriter.Writer)) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	write(w)
	w.Flush()
	return b.String()
}

// modelTable renders title, the header row and one row per model of
// cfgs: the model's name, then the cells row returns for it (or the
// error it returns).
func modelTable(title, header string, cfgs []models.Config, row func(models.Config) (string, error)) string {
	return title + "\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, header)
		for _, cfg := range cfgs {
			cells, err := row(cfg)
			if err != nil {
				cells = "error: " + err.Error()
			}
			fmt.Fprintf(w, "%s\t%s\n", cfg.Name, cells)
		}
	})
}

// compareTable is the model-list comparison figure: a modelTable whose
// row compares the model without and with the overlap pipeline under
// opts and formats the comparison with cells. It also returns the
// comparisons that succeeded, in row order.
func compareTable(title, header string, cfgs []models.Config, opts core.Options, cells func(Comparison) string) (string, []Comparison) {
	var comps []Comparison
	text := modelTable(title, header, cfgs, func(cfg models.Config) (string, error) {
		comp, err := Compare(cfg, opts)
		if err != nil {
			return "", err
		}
		comps = append(comps, comp)
		return cells(comp), nil
	})
	return text, comps
}

// utilization is the Fig 12/13 cells: baseline and overlapped fraction
// of peak FLOPS, and the speedup.
func utilization(c Comparison) string {
	return fmt.Sprintf("%.1f%%\t%.1f%%\t%.2fx", 100*c.Baseline.Utilization, 100*c.Overlapped.Utilization, c.Speedup())
}

// configTable is the runner that prints cfgs, the models a table of
// the paper lists.
func configTable(title string, cfgs func() []models.Config) func(machine.Spec) (Result, error) {
	return func(machine.Spec) (Result, error) {
		return report(modelTable(title, "model\tparams(B)\tlayers\td_model\td_ff\tbatch\tchips\tmesh\tarch", cfgs(),
			func(c models.Config) (string, error) {
				return fmt.Sprintf("%.1f\t%d\t%d\t%d\t%d\t%d\t%dx%d\t%s",
					c.ParamsB, c.Layers, c.ModelDim, c.FFDim, c.Batch, c.Chips, c.MeshX, c.MeshY, c.Arch), nil
			})), nil
	}
}

// fig1 reproduces the step-time breakdown of Figure 1: the fraction of
// the (baseline, non-overlapped) training step spent in communication.
func fig1(spec machine.Spec) (Result, error) {
	return report(modelTable("Figure 1: training step time breakdown (baseline, no overlap)",
		"model\tcompute\tcommunication\tstep time", models.Table1(),
		func(cfg models.Config) (string, error) {
			run, err := RunModel(cfg, core.Options{Spec: spec}, false)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%.1f%%\t%.1f%%\t%.2f s",
				100*(1-run.Breakdown.CommFraction()), 100*run.Breakdown.CommFraction(), run.StepTime), nil
		})), nil
}

// fig12 reproduces Figure 12: normalized throughput (fraction of peak
// FLOPS) with and without the proposed technique, plus the §6.1
// communication-cost-reduction column.
func fig12(spec machine.Spec) (Result, error) {
	return compared(compareTable("Figure 12: performance of the evaluated applications",
		"model\tbaseline util\toverlap util\tspeedup\texposed comm reduction", models.Table1(), core.DefaultOptions(spec),
		func(c Comparison) string { return fmt.Sprintf("%s\t%.1fx", utilization(c), c.CommReduction()) })), nil
}

// fig13 reproduces the weak-scaling study of Figure 13 on the Table 2
// GPT family.
func fig13(spec machine.Spec) (Result, error) {
	return compared(compareTable("Figure 13: performance of the weakly scaled GPT models",
		"model\tbaseline util\toverlap util\tspeedup", models.Table2(), core.DefaultOptions(spec), utilization)), nil
}

// ablation runs the Table 2 family with one option set on and off
// and reports stepTime(on)/stepTime(off) per model.
func ablation(spec machine.Spec, title string, set func(o *core.Options, on bool)) (Result, error) {
	var ratios []float64
	text := modelTable(title, "model\twithout\twith\tnormalized time (with/without)", models.Table2(),
		func(cfg models.Config) (string, error) {
			var runs [2]Run
			for i, on := range []bool{true, false} {
				opts := core.DefaultOptions(spec)
				set(&opts, on)
				var err error
				if runs[i], err = RunModel(cfg, opts, true); err != nil {
					return "", err
				}
			}
			on, off := runs[0].Breakdown.StepTime, runs[1].Breakdown.StepTime
			ratios = append(ratios, on/off)
			return fmt.Sprintf("%.3f ms\t%.3f ms\t%.3f", 1e3*off, 1e3*on, on/off), nil
		})
	return Result{Structured: Structured{Text: text, Speedups: ratios}}, nil
}

// fig14 reproduces the loop-unrolling ablation of Figure 14.
func fig14(spec machine.Spec) (Result, error) {
	return ablation(spec, "Figure 14: effect of loop unrolling (per-layer step time)",
		func(o *core.Options, on bool) { o.Unroll = on })
}

// fig15 reproduces the bidirectional-transfer ablation of Figure 15.
func fig15(spec machine.Spec) (Result, error) {
	return ablation(spec, "Figure 15: effect of bidirectional data transfer (per-layer step time)",
		func(o *core.Options, on bool) { o.Bidirectional = on })
}

// fig16 reproduces the scheduler comparison of Figure 16: bottom-up on,
// top-down off.
func fig16(spec machine.Spec) (Result, error) {
	return ablation(spec, "Figure 16: bottom-up vs top-down scheduling (per-layer step time)",
		func(o *core.Options, on bool) {
			o.Scheduler = core.SchedulerTopDown
			if on {
				o.Scheduler = core.SchedulerBottomUp
			}
		})
}

// energy reproduces §6.4: energy consumption reduction equals the
// end-to-end step time ratio (computational units cannot sleep during
// synchronous communication).
func energy(spec machine.Spec) (Result, error) {
	text, _ := compareTable("Section 6.4: energy consumption reduction (= step time ratio)",
		"model\tenergy reduction", models.Table1(), core.DefaultOptions(spec),
		func(c Comparison) string { return fmt.Sprintf("%.2fx", c.Speedup()) })
	return report(text), nil
}

// inferenceChain is a multi-layer 2-way model-parallel MLP serving
// graph (the §7.1 recommendation-model stand-in) with e batch rows:
// weights sharded across the 2-device ring and AllGathered before each
// einsum, activations replicated, layers chained so one layer's gathers
// can overlap the previous layer's computation.
func inferenceChain(layers, e, d, f int) program {
	return program{devices: 2, layers: 1, build: func() (*hlo.Computation, error) {
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
		return b.Comp, nil
	}}
}

// compareInference compares the §7.1 chain with e batch rows. The
// overlap feature is force-enabled: the §5.5 estimate conservatively
// assumes loop prologues cannot be hidden, but in a chained multi-layer
// serving graph they overlap the previous layer's computation.
func compareInference(spec machine.Spec, layers, e int) (Comparison, error) {
	opts := core.DefaultOptions(spec)
	opts.UseCostModel = false
	return compare(inferenceChain(layers, e, 4096, 16384), opts)
}

// inference reproduces the §7.1 case study: latency improvement of a
// small model served with 2-way intra-layer model parallelism.
func inference(spec machine.Spec) (Result, error) {
	const layers, e = 8, 2688
	comp, err := compareInference(spec, layers, e)
	if err != nil {
		return Result{}, err
	}
	text := fmt.Sprintf("Section 7.1: 2-way model-parallel inference latency (%d-layer MLP)\nbaseline %.3f ms  overlapped %.3f ms  improvement %.2fx\n",
		layers, 1e3*comp.Baseline.Breakdown.StepTime, 1e3*comp.Overlapped.Breakdown.StepTime, comp.Speedup())
	return Result{Structured: Structured{Text: text, Speedups: []float64{comp.Speedup()}}, Comparisons: []Comparison{comp}}, nil
}
