package train_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/train"
)

func testConfig(s train.Strategy) train.Config {
	return train.Config{Devices: 4, Layers: 2, Model: 8, Hidden: 16, Tokens: 16, Strategy: s}
}

// overlapOptions is the fully-enabled pipeline for training programs:
// cost model off (miniature shapes never clear the modeled threshold)
// and gather rematerialization on (the backward weight-grad einsum
// shares the forward gather; duplicating it restores the
// single-consumer pattern the decomposition matches).
func overlapOptions() core.Options {
	o := core.DefaultOptions(machine.TPUv4())
	o.UseCostModel = false
	o.RematerializeGathers = true
	return o
}

func countOps(c *hlo.Computation, op hlo.OpCode) int {
	n := 0
	for _, in := range c.Instructions() {
		if in.Op == op {
			n++
		}
	}
	return n
}

// TestBuildStructure pins the §2.2 shape of each strategy's program:
// Megatron's forward AllGathers get transposed into backward
// ReduceScatters, DDP's replicated weights need per-weight AllReduces.
func TestBuildStructure(t *testing.T) {
	mega, err := train.Build(testConfig(train.StrategyMegatron))
	if err != nil {
		t.Fatal(err)
	}
	w := mega.Config.NumWeights()
	if got := countOps(mega.Comp, hlo.OpAllGather); got < w {
		t.Errorf("megatron: %d AllGathers, want >= %d (one per weight forward)", got, w)
	}
	if got := countOps(mega.Comp, hlo.OpReduceScatter); got != w {
		t.Errorf("megatron: %d ReduceScatters, want %d (one per weight gradient)", got, w)
	}
	if got := countOps(mega.Comp, hlo.OpAllReduce); got != 0 {
		t.Errorf("megatron: %d AllReduces, want 0", got)
	}

	ddp, err := train.Build(testConfig(train.StrategyDDP))
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(ddp.Comp, hlo.OpAllReduce); got != w {
		t.Errorf("ddp: %d AllReduces, want %d (one per weight gradient)", got, w)
	}
	named := 0
	for _, in := range ddp.Comp.Instructions() {
		if strings.HasPrefix(in.Name, "gsum.") {
			named++
		}
	}
	if named != w {
		t.Errorf("ddp: %d gsum.* gradient reductions, want %d", named, w)
	}
	if got := countOps(ddp.Comp, hlo.OpAllGather); got != 0 {
		t.Errorf("ddp: %d AllGathers in a collective-free forward, want 0", got)
	}
}

// TestLossDecreases runs real SGD steps per strategy, bitwise-checked
// against the interpreter, and requires a decreasing loss trajectory.
func TestLossDecreases(t *testing.T) {
	for _, s := range []train.Strategy{train.StrategyMegatron, train.StrategyDDP} {
		res, err := train.Run(context.Background(), testConfig(s), train.Options{
			Steps: 4, Check: true, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(res.Steps) != 4 {
			t.Fatalf("%s: %d steps, want 4", s, len(res.Steps))
		}
		for i, st := range res.Steps {
			if !st.Checked {
				t.Fatalf("%s: step %d not checked", s, i)
			}
			if i > 0 && st.Loss >= res.Steps[i-1].Loss {
				t.Fatalf("%s: loss did not decrease at step %d: %v", s, i, lossesOf(res))
			}
		}
		t.Logf("%s losses: %v", s, lossesOf(res))
	}
}

func lossesOf(res *train.Result) []float64 {
	out := make([]float64, len(res.Steps))
	for i, st := range res.Steps {
		out[i] = st.Loss
	}
	return out
}

// trainVariant is one (pipeline, label) cell of the bitwise grid.
type trainVariant struct {
	name string
	opts *core.Options
}

func megatronVariants() []trainVariant {
	base := overlapOptions()
	topdown := overlapOptions()
	topdown.Scheduler = core.SchedulerTopDown
	plain := overlapOptions()
	plain.Unroll, plain.Bidirectional = false, false
	noSched := overlapOptions()
	noSched.Scheduler = core.SchedulerNone
	return []trainVariant{
		{"baseline", nil},
		{"overlap", &base},
		{"topdown", &topdown},
		{"no-unroll", &plain},
		{"no-schedule", &noSched},
	}
}

func ddpVariants() []trainVariant {
	split := overlapOptions()
	split.SplitAllReduce = true
	bucketBig := overlapOptions()
	bucketBig.GradBucketBytes = 1 << 20
	bucketSmall := overlapOptions()
	bucketSmall.GradBucketBytes = 600
	bucketNoSched := overlapOptions()
	bucketNoSched.GradBucketBytes = 1 << 20
	bucketNoSched.Scheduler = core.SchedulerNone
	return []trainVariant{
		{"baseline", nil},
		{"split-allreduce", &split},
		{"bucket-1M", &bucketBig},
		{"bucket-600B", &bucketSmall},
		{"bucket-no-schedule", &bucketNoSched},
	}
}

// TestGradientsBitIdenticalAcrossConfigs is the dyadic-exactness
// acceptance: every overlap configuration — rolled baseline, decomposed
// loops, bucketed ring all-reduce — and every kernel worker count
// (GOMAXPROCS) must produce byte-identical first-step gradients and
// updated weights. Each step is additionally checked bitwise against
// the interpreter, and the loss trajectories must agree across configs
// to the last bit at step one and to float tolerance afterwards.
func TestGradientsBitIdenticalAcrossConfigs(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, tc := range []struct {
		strategy train.Strategy
		variants []trainVariant
	}{
		{train.StrategyMegatron, megatronVariants()},
		{train.StrategyDDP, ddpVariants()},
	} {
		var wantGrad, wantWeight string
		var wantLoss []float64
		for _, v := range tc.variants {
			for _, workers := range []int{1, 3} {
				goruntime.GOMAXPROCS(workers)
				res, err := train.Run(context.Background(), testConfig(tc.strategy), train.Options{
					Pipeline: v.opts, Steps: 2, Check: true, Seed: 9,
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", tc.strategy, v.name, err)
				}
				first := res.Steps[0]
				if wantGrad == "" {
					wantGrad, wantWeight, wantLoss = first.GradDigest, first.WeightDigest, lossesOf(res)
					continue
				}
				if first.GradDigest != wantGrad {
					t.Errorf("%s/%s kw=%d: step-1 gradient digest diverges", tc.strategy, v.name, workers)
				}
				if first.WeightDigest != wantWeight {
					t.Errorf("%s/%s kw=%d: step-1 weight digest diverges", tc.strategy, v.name, workers)
				}
				for i, l := range lossesOf(res) {
					if d := l - wantLoss[i]; d > 1e-9 || d < -1e-9 {
						t.Errorf("%s/%s kw=%d: step-%d loss %v != %v", tc.strategy, v.name, workers, i, l, wantLoss[i])
					}
				}
			}
		}
	}
}

// attributionFor applies opts to cfg's program and attributes a
// deterministic simulated trace — the modeled analogue of the runtime's
// span stream, same machinery as the paper's Figure 9 analysis.
func attributionFor(t *testing.T, cfg train.Config, opts core.Options) (obs.AttributionReport, *train.Program, core.Report) {
	t.Helper()
	prog, err := train.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.Apply(prog.Comp, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, events, err := sim.SimulateTrace(prog.Comp, cfg.Devices, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	return obs.Attribute(events), prog, report
}

// TestTrainOverlapAttribution is the issue's attribution acceptance: on
// the miniature multi-layer model at 4 devices, at least half of the
// gradient-collective wire time must hide under backward computation.
//
// For DDP every collective in the transformed program IS a gradient
// bucket, so the aggregate OverlapEfficiency is exactly the
// gradient-collective hidden fraction; the per-bucket rollup must also
// show a partially-hidden bucket whose hiding spans are einsum work.
func TestTrainOverlapAttribution(t *testing.T) {
	cfg := testConfig(train.StrategyDDP)
	cfg.Model, cfg.Hidden, cfg.Tokens, cfg.Layers = 32, 128, 64, 2
	opts := overlapOptions()
	opts.GradBucketBytes = 16 << 10
	rep, _, report := attributionFor(t, cfg, opts)
	if len(report.Buckets) < 2 {
		t.Fatalf("want >= 2 gradient buckets, got %+v", report.Buckets)
	}
	if eff := rep.OverlapEfficiency(); eff < 0.5 {
		t.Fatalf("gradient-collective overlap efficiency %.2f < 0.5\n%s", eff, rep.Render())
	}
	buckets := rep.GroupBy(train.BucketKey)
	sawHidden := false
	for _, b := range buckets {
		if !strings.HasPrefix(b.Name, "gbkt") {
			t.Errorf("non-bucket collective %q in a bucketed DDP program", b.Name)
			continue
		}
		if b.Hidden > 0 && len(b.Under) > 0 {
			sawHidden = true
		}
	}
	if !sawHidden {
		t.Fatalf("no bucket reports hidden wire time:\n%s", rep.Render())
	}
}

// TestMegatronBackwardHidesReduceScatter: the Megatron path's backward
// ReduceScatters, decomposed into looped CollectiveEinsums, must also
// clear the 50% aggregate bar, with einsum spans doing the hiding.
func TestMegatronBackwardHidesReduceScatter(t *testing.T) {
	cfg := testConfig(train.StrategyMegatron)
	cfg.Model, cfg.Hidden, cfg.Tokens, cfg.Layers = 32, 128, 64, 2
	rep, _, _ := attributionFor(t, cfg, overlapOptions())
	if eff := rep.OverlapEfficiency(); eff < 0.5 {
		t.Fatalf("megatron overlap efficiency %.2f < 0.5\n%s", eff, rep.Render())
	}
	hidden := false
	for _, a := range rep.Collectives {
		if a.Hidden > 0 {
			for _, u := range a.Under {
				if strings.Contains(u.Name, "einsum") || strings.Contains(u.Name, "fusion") {
					hidden = true
				}
			}
		}
	}
	if !hidden {
		t.Fatalf("no collective hidden under einsum compute:\n%s", rep.Render())
	}
}

// TestRunStopsOnNonFiniteLoss is the regression test for the diverging
// default: at this size the 1/16 learning rate overflows within a few
// steps, and the run used to complete with a NaN final loss. It must
// stop at the first non-finite step and say which step and rate.
func TestRunStopsOnNonFiniteLoss(t *testing.T) {
	cfg := train.Config{Devices: 4, Layers: 2, Model: 128, Hidden: 512, Tokens: 128, Strategy: train.StrategyMegatron}
	_, err := train.Run(context.Background(), cfg, train.Options{Steps: 12, Seed: 1})
	var div *train.DivergedError
	if !errors.As(err, &div) {
		t.Fatalf("got %v, want a *train.DivergedError", err)
	}
	if div.LR != 1.0/16 || div.Step < 1 || div.Step >= 12 {
		t.Fatalf("diverged error names step %d, lr %g", div.Step, div.LR)
	}
}

// TestRunExecutesPipelineSplitK pins that the pipeline's split-K factor
// reaches the executed program and nothing else does: every einsum is
// stamped, the kernels really split (the counter moves), every step
// matches the interpreter bitwise, and the digests equal a quiet run's
// while another goroutine flips the tensor-level bare-call default.
func TestRunExecutesPipelineSplitK(t *testing.T) {
	cfg := train.Config{Devices: 4, Layers: 1, Model: 64, Hidden: 256, Tokens: 32, Strategy: train.StrategyMegatron}
	pipeline := overlapOptions()
	pipeline.KernelSplitK = 2
	opts := train.Options{Pipeline: &pipeline, Steps: 2, LR: 1.0 / 1024, Seed: 3, Check: true}

	prog, err := train.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Apply(prog.Comp, pipeline); err != nil {
		t.Fatal(err)
	}
	prog.Comp.Walk(func(in *hlo.Instruction) {
		if in.Op == hlo.OpEinsum && in.SplitK != 2 {
			t.Errorf("%s stamped %d, want 2", in.Name, in.SplitK)
		}
	})

	splits := func() float64 { return obs.Default().Counter("overlap_kernel_splitk_total", "").Value() }
	before := splits()
	quiet, err := train.Run(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if splits() == before {
		t.Fatal("no kernel split its contraction: Run ignored Pipeline.KernelSplitK")
	}

	defer tensor.SetKernelSplitK(0)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				tensor.SetKernelSplitK([]int{0, 4, 8}[i%3])
			}
		}
	}()
	noisy, err := train.Run(context.Background(), cfg, opts)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiet.Steps {
		if noisy.Steps[i].WeightDigest != quiet.Steps[i].WeightDigest || !noisy.Steps[i].Checked {
			t.Fatalf("step %d: digest moved with the tensor-level factor (checked=%v)", i, noisy.Steps[i].Checked)
		}
	}
}

// TestPipelineTextBelowFactor2 pins the megatron program the overlap
// pipeline emits with split-K off to the bytes it had before einsums
// could carry a factor (sha256 of the text at that commit, which
// emitted it on 29 runs of 30 — RematerializeGathers then cloned in
// map order): factors below 2 print nothing.
func TestPipelineTextBelowFactor2(t *testing.T) {
	const want = "a74735f0fee1357657e0e51ce9ebd4503d3b57ca18e3dc4d9d72c1be541eded0"
	for _, factor := range []int{0, 1} {
		prog, err := train.Build(testConfig(train.StrategyMegatron))
		if err != nil {
			t.Fatal(err)
		}
		pipeline := overlapOptions()
		pipeline.KernelSplitK = factor
		if _, err := core.Apply(prog.Comp, pipeline); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(prog.Comp.Format()))); got != want {
			t.Fatalf("factor %d: megatron overlap program text changed (sha256 %s)", factor, got)
		}
	}
}
