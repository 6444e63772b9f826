package train_test

import (
	"context"
	"testing"

	"overlap/internal/core"
	"overlap/internal/train"
)

// stepConfig sizes the miniature model so the partial einsums take
// measurable CPU time, and the scaled wire (TimeScale below) makes a
// blocking collective expensive — the regime where overlap pays.
func stepConfig(s train.Strategy) train.Config {
	return train.Config{Devices: 4, Layers: 2, Model: 32, Hidden: 128, Tokens: 96, Strategy: s}
}

// stepTimeScale stretches the modeled microsecond-scale transfers
// into tens of milliseconds of replayed wire, far above the noise in the
// measured compute.
const stepTimeScale = 30000

func stepSeconds(t testing.TB, s train.Strategy, pipeline *core.Options) float64 {
	res, err := train.Run(context.Background(), stepConfig(s), train.Options{
		Pipeline: pipeline, Steps: 1, Seed: 5, TimeScale: stepTimeScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Steps[0].StepSeconds
}

// rolledMegatron is the paper's no-overlap baseline for the tensor-
// parallel path: the same decomposed program emitted as a counted loop
// with blocking permutes, so the wire totals match and the measured gap
// is purely the software pipelining.
func rolledMegatron() core.Options {
	o := overlapOptions()
	o.Rolled = true
	return o
}

// TestOverlappedTrainStepFasterReplayedStep is the training step's
// performance acceptance on the goroutine runtime at 4 devices, read on
// the replayed step (measured compute per local op, scaled modeled
// wire), minimum of two repeats per cell to absorb noise in the
// measured compute:
//
//   - DDP: the bucketed asynchronous gradient all-reduce must beat the
//     sequential bwd→all-reduce baseline (blocking collectives after
//     the backward pass) by at least 5%.
//   - Megatron: the decomposed + scheduled step must beat the rolled
//     (blocking-loop) form of the same program by at least 5% — the
//     paper's own rolled-vs-decomposed comparison. A blocking AllGather
//     is not the interesting baseline here: the runtime already grants
//     it full ring bandwidth with no per-chunk latency, so decomposing
//     it buys overlap, not wire time.
func TestOverlappedTrainStepFasterReplayedStep(t *testing.T) {
	if testing.Short() {
		t.Skip("replayed-step comparison over measured compute")
	}
	bucketed := overlapOptions()
	bucketed.GradBucketBytes = 32 << 10
	mega := overlapOptions()
	rolled := rolledMegatron()
	for _, tc := range []struct {
		name           string
		strategy       train.Strategy
		baseline, opts *core.Options
	}{
		{"megatron-vs-rolled", train.StrategyMegatron, &rolled, &mega},
		{"ddp-bucketed-vs-blocking", train.StrategyDDP, nil, &bucketed},
	} {
		baseline, overlapped := 0.0, 0.0
		for r := 0; r < 2; r++ {
			b := stepSeconds(t, tc.strategy, tc.baseline)
			o := stepSeconds(t, tc.strategy, tc.opts)
			if r == 0 || b < baseline {
				baseline = b
			}
			if r == 0 || o < overlapped {
				overlapped = o
			}
		}
		t.Logf("%s: baseline %.1fms, overlapped %.1fms (%.2fx)",
			tc.name, baseline*1e3, overlapped*1e3, baseline/overlapped)
		if overlapped >= baseline*0.95 {
			t.Errorf("%s: overlapped step (%.1fms) did not beat baseline (%.1fms) by 5%%",
				tc.name, overlapped*1e3, baseline*1e3)
		}
	}
}

// BenchmarkTrainStep times one training step per configuration on the
// goroutine runtime with scaled wire delays — the sequential baseline
// against both overlapped strategies.
func BenchmarkTrainStep(b *testing.B) {
	bucketed := overlapOptions()
	bucketed.GradBucketBytes = 32 << 10
	mega := overlapOptions()
	rolled := rolledMegatron()
	for _, bc := range []struct {
		name     string
		strategy train.Strategy
		opts     *core.Options
	}{
		{"rolled-megatron", train.StrategyMegatron, &rolled},
		{"overlap-megatron", train.StrategyMegatron, &mega},
		{"sequential-ddp", train.StrategyDDP, nil},
		{"overlap-ddp-bucketed", train.StrategyDDP, &bucketed},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sec := stepSeconds(b, bc.strategy, bc.opts)
				b.ReportMetric(sec*1e3, "ms/step")
			}
		})
	}
}
