package main

import (
	"context"
	"fmt"
	"time"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/train"
)

// train_megatron's fixed configuration. trainLR must be set: the
// train.Options default of 1/16 diverges to NaN on this model within a
// few steps, so a run that forgot it would measure nothing.
const (
	trainTimeScale  = 2000
	trainLR         = 1.0 / 1024
	trainCheckSteps = 3
)

var trainConfig = train.Config{
	Devices: 4, Layers: 2, Model: 128, Hidden: 512, Tokens: 128,
	Strategy: train.StrategyMegatron,
}

// trainRunner is one set-up train_megatron workload: the prebuilt,
// transformed training-step program and the loss/digest trajectory
// every Execute call over the same seed must reproduce.
type trainRunner struct {
	prog *train.Program
	layr *program
	seed int64
	// singleStep makes every Execute call one step long: the traced
	// pass's untraced twin, so that both medians behind
	// obs.trace_overhead_frac see a first step on freshly fed weights.
	singleStep bool
	// trajectory[i] is step i's outcome: the first trainCheckSteps were
	// checked bitwise against the interpreter in set-up, later steps are
	// pinned by the first call that reaches them.
	trajectory []train.StepStat
}

func newTrain(seed int64) (*trainRunner, error) {
	spec := machine.TPUv4()
	prog, err := train.Build(trainConfig)
	if err != nil {
		return nil, err
	}
	t := &trainRunner{prog: prog, seed: seed}
	args, err := train.Args(prog, seed, trainLR)
	if err != nil {
		return nil, err
	}
	t.layr = &program{
		build: func() *hlo.Computation {
			p, err := train.Build(trainConfig)
			if err != nil {
				panic(err) // the same config built a moment ago
			}
			return p.Comp
		},
		pipeline: sitePipeline(spec), devices: trainConfig.Devices, spec: spec, args: args,
	}
	t.layr.comp = prog.Comp
	if t.layr.report, err = core.Apply(prog.Comp, t.layr.pipeline); err != nil {
		return nil, err
	}

	// The checked segment doubles as the warm-up: three steps, each
	// verified bitwise against sim.Interpret, losses strictly falling.
	res, err := t.execute(trainCheckSteps, func(o *train.Options) { o.Check = true })
	if err != nil {
		return nil, err
	}
	for i, st := range res.Steps {
		if !st.Checked || (i > 0 && !(st.Loss < res.Steps[i-1].Loss)) {
			return nil, fmt.Errorf("train: set-up step %d: checked=%v loss %g after %g", i, st.Checked, st.Loss, res.Steps[max(i-1, 0)].Loss)
		}
	}
	t.trajectory = res.Steps
	return t, nil
}

func (t *trainRunner) execute(steps int, with func(*train.Options)) (*train.Result, error) {
	opts := train.Options{
		Steps: steps, LR: trainLR, Seed: t.seed,
		Spec: t.layr.spec, TimeScale: trainTimeScale,
	}
	if with != nil {
		with(&opts)
	}
	return train.Execute(context.Background(), t.prog, &train.Result{Config: t.prog.Config, Report: t.layr.report}, opts)
}

func (t *trainRunner) close() {}

// verify marks which of a call's steps failed: a loss that did not
// fall, or a gradient/weight digest that differs from what the same
// step produced before.
func (t *trainRunner) verify(steps []train.StepStat) []bool {
	failed := make([]bool, len(steps))
	for i, st := range steps {
		if i > 0 && !(st.Loss < steps[i-1].Loss) {
			failed[i] = true
		}
		if i < len(t.trajectory) {
			ref := t.trajectory[i]
			if st.Loss != ref.Loss || st.GradDigest != ref.GradDigest || st.WeightDigest != ref.WeightDigest {
				failed[i] = true
			}
		} else {
			t.trajectory = append(t.trajectory, st)
		}
	}
	return failed
}

// segment runs n training steps as one Execute call on the prebuilt
// program (each call restarts from the seeded initial weights); one
// sample per step, its StepStat.StepSeconds. Traced, every step is its
// own Execute call with attribution on, so each one returns a trace.
func (t *trainRunner) segment(n int, rec *recorder) []sample {
	if rec != nil {
		out := make([]sample, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, t.tracedStep(rec))
		}
		return out
	}
	out := make([]sample, 0, n)
	per, calls := n, 1
	if t.singleStep {
		per, calls = 1, n
	}
	for c := 0; c < calls; c++ {
		res, err := t.execute(per, nil)
		if err != nil {
			for i := 0; i < per; i++ {
				out = append(out, sample{failed: true})
			}
			continue
		}
		failed := t.verify(res.Steps)
		for i, st := range res.Steps {
			out = append(out, sample{ms: st.StepSeconds * 1e3, failed: failed[i]})
		}
	}
	return out
}

func (t *trainRunner) tracedStep(rec *recorder) sample {
	t0 := time.Now()
	res, err := t.execute(1, func(o *train.Options) { o.Attribution = true })
	t1 := time.Now()
	if err != nil {
		return sample{failed: true}
	}
	st := res.Steps[0]
	sm := sample{ms: st.StepSeconds * 1e3, failed: t.verify(res.Steps)[0]}

	// The call span is timed; the step inside it is placed from the
	// call's own report (StepSeconds), flush with the call's end: what
	// precedes it is argument generation, the modeled attribution and
	// the digests, i.e. the train layer's own work.
	op := rec.newOp()
	root := rec.add(op, 0, layerBench, "op", t0, t1)
	call := rec.add(op, root, layerTrain, "train.Execute", t0, t1)
	stepStart := t1.Add(-time.Duration(st.StepSeconds * float64(time.Second)))
	step := rec.addUS(span{Op: op, Parent: call, Layer: layerRuntime, Name: "runtime.Run", StartUS: rec.us(stepStart), EndUS: rec.us(t1), Reported: true})
	spans := spansOf(res.Trace)
	recordDeviceEvents(rec, op, step, stepStart, t1, spans)

	wall := t1.Sub(t0).Seconds() * 1e3
	rec.observe("train.step_ms_p50", sm.ms)
	rec.observe("train.feed_ms_per_step", wall-sm.ms)
	rec.observe("train.hidden_frac", res.Attribution.OverlapEfficiency())
	rec.observe("train.modeled_hidden_frac", res.Modeled.OverlapEfficiency())

	var compute, wire, exposed float64
	for _, s := range spans {
		switch {
		case s.Track == obs.TrackTransfer:
			wire += s.Dur
		case s.Cat == obs.CatCompute:
			compute += s.Dur
		default:
			exposed += s.Dur
		}
	}
	n := float64(t.prog.Config.Devices)
	recordBreakdown(rec, wall, sm.ms, compute*1e3/n, wire*1e3/n, exposed*1e3/n)
	recordAttribution(rec, *res.Attribution, res.Trace, t.prog.Config.Devices)

	rec.observe("obs.events_per_op", float64(len(spans)))
	rec.observe("obs.attribute_ms", rec.timed(op, 0, layerObs, "obs.Attribute", func() { obs.Attribute(spans) }))
	var encoded []byte
	rec.observe("obs.encode_ms", rec.timed(op, 0, layerObs, "RunTrace.EncodeJSON", func() { encoded, _ = res.Trace.EncodeJSON() }))
	rec.observe("obs.trace_kb", float64(len(encoded))/1024)
	return sm
}
