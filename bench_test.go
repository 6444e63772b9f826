package overlap

// One benchmark per table and figure of the paper's evaluation section
// (DESIGN.md §4 indexes them), plus micro-benchmarks of the pipeline
// stages. The figure benchmarks regenerate one entry of the
// experiments runner table — model graph construction, overlap
// pipeline, timing simulation across all configurations — and print the
// headline metric they reproduce.

import (
	"math/rand"
	"testing"

	"overlap/internal/core"
	"overlap/internal/experiments"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec := TPUv4()
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment(id, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Models regenerates Table 1.
func BenchmarkTable1Models(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Models regenerates Table 2.
func BenchmarkTable2Models(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig1Breakdown regenerates the Figure 1 step-time breakdown.
func BenchmarkFig1Breakdown(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig12Overall regenerates Figure 12 (overall performance of
// the six applications) and reports the headline metrics.
func BenchmarkFig12Overall(b *testing.B) {
	spec := TPUv4()
	var bestUtil, avgSpeedup float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Regenerate("fig12", spec)
		if err != nil {
			b.Fatal(err)
		}
		comps := r.Comparisons
		bestUtil, avgSpeedup = 0, 0
		for _, c := range comps {
			if u := c.Overlapped.Utilization; u > bestUtil {
				bestUtil = u
			}
			avgSpeedup += c.Speedup() / float64(len(comps))
		}
	}
	b.ReportMetric(100*bestUtil, "peak-util-%")
	b.ReportMetric(avgSpeedup, "avg-speedup-x")
}

// BenchmarkFig13WeakScaling regenerates Figure 13.
func BenchmarkFig13WeakScaling(b *testing.B) {
	spec := TPUv4()
	var minS, maxS float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Regenerate("fig13", spec)
		if err != nil {
			b.Fatal(err)
		}
		comps := r.Comparisons
		minS, maxS = 10, 0
		for _, c := range comps {
			if s := c.Speedup(); s < minS {
				minS = s
			}
			if s := c.Speedup(); s > maxS {
				maxS = s
			}
		}
	}
	b.ReportMetric(minS, "min-speedup-x")
	b.ReportMetric(maxS, "max-speedup-x")
}

// BenchmarkFig14Unrolling regenerates the loop-unrolling ablation.
func BenchmarkFig14Unrolling(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15Bidirectional regenerates the bidirectional-transfer
// ablation.
func BenchmarkFig15Bidirectional(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16Schedulers regenerates the scheduler comparison.
func BenchmarkFig16Schedulers(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkEnergyReduction regenerates the §6.4 energy table.
func BenchmarkEnergyReduction(b *testing.B) { benchExperiment(b, "energy") }

// BenchmarkInferenceLatency regenerates the §7.1 inference case study
// and reports the latency improvement.
func BenchmarkInferenceLatency(b *testing.B) {
	spec := TPUv4()
	var improvement float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Regenerate("inference", spec)
		if err != nil {
			b.Fatal(err)
		}
		improvement = r.Comparisons[0].Speedup()
	}
	b.ReportMetric(improvement, "latency-improvement-x")
}

// ---- pipeline-stage micro-benchmarks ----

func gpt32bLayer(b *testing.B) *Computation {
	b.Helper()
	c, err := models.BuildLayerStep(models.Table2()[0])
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkDecomposePipeline measures the full compiler pipeline
// (pattern finding, decomposition, fusion, async conversion, bottom-up
// scheduling) on one GPT_32B layer graph.
func BenchmarkDecomposePipeline(b *testing.B) {
	spec := machine.TPUv4()
	for i := 0; i < b.N; i++ {
		c := gpt32bLayer(b)
		if _, err := core.Apply(c, core.DefaultOptions(spec)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateLayer measures the discrete-event timing simulation
// of one overlapped GPT_32B layer across its 64 devices.
func BenchmarkSimulateLayer(b *testing.B) {
	spec := machine.TPUv4()
	c := gpt32bLayer(b)
	if _, err := core.Apply(c, core.DefaultOptions(spec)); err != nil {
		b.Fatal(err)
	}
	n := models.Table2()[0].Mesh().NumDevices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(c, n, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleBottomUp isolates the Algorithm 2 scheduler. It
// returns an order and leaves its input as it was, so one asynchronous
// program serves every iteration.
func BenchmarkScheduleBottomUp(b *testing.B) {
	spec := machine.TPUv4()
	c := gpt32bLayer(b)
	opts := core.DefaultOptions(spec)
	opts.Scheduler = core.SchedulerNone
	if _, err := core.Apply(c, opts); err != nil {
		b.Fatal(err)
	}
	core.MakeAsync(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if order := core.ScheduleBottomUp(c, spec); len(order) != c.NumInstructions() {
			b.Fatalf("ordered %d of %d instructions", len(order), c.NumInstructions())
		}
	}
}

// BenchmarkInterpretDecomposed measures the functional interpreter on a
// small decomposed site across 4 devices — the correctness half of the
// system.
func BenchmarkInterpretDecomposed(b *testing.B) {
	const n = 4
	c := NewComputation("interp")
	groups := NewRing(n).AxisGroups(0)
	a := c.Parameter(0, "a", []int{8, 16})
	w := c.Parameter(1, "w", []int{4, 24})
	full := c.AllGather(w, 0, groups)
	c.Einsum("bf,fh->bh", a, full)
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	if _, err := core.Apply(c, opts); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	args := [][]*tensor.Tensor{
		{tensor.Rand(rng, 8, 16)},
		{tensor.Rand(rng, 4, 24), tensor.Rand(rng, 4, 24), tensor.Rand(rng, 4, 24), tensor.Rand(rng, 4, 24)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Interpret(c, n, args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeRolledVsDecomposed measures — in real wall-clock on
// goroutine devices, not in the discrete-event simulator — one
// AllGather/einsum site executed as a rolled blocking loop versus the
// decomposed, bottom-up-scheduled program. The decomposed variant's
// asynchronous permutes ride the channel links while partial einsums
// compute, so its step-ms metric comes in well under the rolled one on
// ≥ 4 devices (the runtime package's wall-clock test asserts the gap).
func BenchmarkRuntimeRolledVsDecomposed(b *testing.B) {
	const n = 4
	const m, k, nn = 24, 64, 64
	groups := NewRing(n).AxisGroups(0)
	build := func() *Computation {
		c := NewComputation("bench")
		a := c.Parameter(0, "a", []int{m, k})
		w := c.Parameter(1, "w", []int{k, nn})
		full := c.AllGather(a, 0, groups)
		c.Einsum("mk,kn->mn", full, w)
		return c
	}
	rng := rand.New(rand.NewSource(17))
	shards := make([]*tensor.Tensor, n)
	for d := range shards {
		shards[d] = tensor.Rand(rng, m, k)
	}
	args := [][]*tensor.Tensor{shards, {tensor.Rand(rng, k, nn)}}
	ropts := runtime.Options{Spec: machine.TPUv4(), TimeScale: 30000}

	bench := func(b *testing.B, opts core.Options, ropts runtime.Options) {
		c := build()
		if _, err := core.Apply(c, opts); err != nil {
			b.Fatal(err)
		}
		var step float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := runtime.Run(c, n, args, ropts)
			if err != nil {
				b.Fatal(err)
			}
			step = res.Breakdown.StepTime
		}
		b.ReportMetric(step*1e3, "step-ms")
	}

	b.Run("rolled", func(b *testing.B) {
		bench(b, core.Options{Spec: machine.TPUv4(), Knobs: core.Knobs{Rolled: true, UseCostModel: false, Scheduler: core.SchedulerNone}}, ropts)
	})
	b.Run("decomposed", func(b *testing.B) {
		opts := core.DefaultOptions(machine.TPUv4())
		opts.UseCostModel = false
		bench(b, opts, ropts)
	})
	// The decomposed case again with telemetry recording disabled: the
	// step-ms gap between this and "decomposed" bounds the metrics
	// registry's overhead on the runtime hot path (budget: < 5%).
	b.Run("decomposed-noinstr", func(b *testing.B) {
		obs.Default().SetEnabled(false)
		defer obs.Default().SetEnabled(true)
		opts := core.DefaultOptions(machine.TPUv4())
		opts.UseCostModel = false
		bench(b, opts, ropts)
	})
	// The decomposed case with per-instruction trace recording on — the
	// events every RunTrace artifact is built from. The step-ms gap
	// between this and "decomposed" bounds trace recording's overhead on
	// the runtime hot path (budget: < 5%, same bar as -noinstr).
	b.Run("decomposed-traced", func(b *testing.B) {
		opts := core.DefaultOptions(machine.TPUv4())
		opts.UseCostModel = false
		traced := ropts
		traced.Trace = true
		bench(b, opts, traced)
	})
}

// BenchmarkMetricsHotPath measures the per-update cost of the
// telemetry handles the executors bump from their hot paths.
func BenchmarkMetricsHotPath(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_total", "")
	g := r.Gauge("bench_gauge", "")
	h := r.Histogram("bench_seconds", "", obs.TimeBuckets())
	b.Run("counter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(1e-4)
		}
	})
}

// ---- extension benchmarks ----

// BenchmarkMemoryExtension regenerates the peak-memory ablation.
func BenchmarkMemoryExtension(b *testing.B) { benchExperiment(b, "memory") }

// BenchmarkRolledExtension regenerates the rolled-vs-expanded ablation.
func BenchmarkRolledExtension(b *testing.B) { benchExperiment(b, "rolled") }

// BenchmarkInferenceSweep regenerates the §7.1 future-work batch sweep.
func BenchmarkInferenceSweep(b *testing.B) { benchExperiment(b, "inference-sweep") }

// BenchmarkPipelineComposition regenerates the §7.3 composition study.
func BenchmarkPipelineComposition(b *testing.B) { benchExperiment(b, "pipeline") }

// BenchmarkGPUGeneralization regenerates the §7.2 GPU-cluster study.
func BenchmarkGPUGeneralization(b *testing.B) { benchExperiment(b, "gpu") }
