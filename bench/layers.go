package main

import (
	"bytes"
	"math/rand"
	"time"

	"overlap/internal/autotune"
	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/runtime/wire"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// program is the computation a workload's op executes, with what is
// needed to rebuild, transform and run it from the outside: the traced
// pass times each layer's public functions on it.
type program struct {
	build    func() *hlo.Computation
	pipeline core.Options
	devices  int
	spec     machine.Spec
	args     [][]*tensor.Tensor

	comp   *hlo.Computation // build() after core.Apply(pipeline)
	report core.Report
}

func (p *program) compile() error {
	p.comp = p.build()
	var err error
	p.report, err = core.Apply(p.comp, p.pipeline)
	return err
}

// probeLayers times the hlo, core, sim, tensor and wire layers on the
// program, standalone, and observes their deterministic counts. It is
// the part of the traced pass that does not depend on the op loop.
func probeLayers(rec *recorder, p *program, reps int) error {
	rec.observe("hlo.build_ms", timeMS(reps, func() { p.build() }))
	var parseErr error
	rec.observe("hlo.roundtrip_ms", timeMS(reps, func() { _, parseErr = hlo.Parse(p.comp.Format()) }))
	if parseErr != nil {
		return parseErr
	}
	rec.observe("hlo.instructions", float64(p.comp.NumInstructions()))
	rec.observe("hlo.peak_live_kb", float64(hlo.PeakMemory(p.comp).PeakBytes)/1024)

	var applyErr error
	fresh := make([]*hlo.Computation, reps)
	for i := range fresh {
		fresh[i] = p.build()
	}
	i := 0
	rec.observe("core.apply_ms", timeMS(reps, func() {
		if _, err := core.Apply(fresh[i], p.pipeline); err != nil {
			applyErr = err
		}
		i++
	}))
	if applyErr != nil {
		return applyErr
	}
	rec.observe("core.sites_decomposed", float64(p.report.SitesDecomposed))
	pairs := 0
	p.comp.Walk(func(in *hlo.Instruction) {
		if in.Op == hlo.OpCollectivePermuteStart {
			pairs++
		}
	})
	rec.observe("core.async_pairs", float64(pairs))

	var simErr error
	rec.observe("sim.interpret_ms", timeMS((reps+1)/2, func() {
		if _, err := sim.Interpret(p.comp, p.devices, p.args); err != nil {
			simErr = err
		}
	}))
	var transformed sim.Breakdown
	rec.observe("sim.simulate_ms", timeMS(reps, func() {
		b, err := sim.Simulate(p.comp, p.devices, p.spec)
		if err != nil {
			simErr = err
		}
		transformed = b
	}))
	baseline, err := sim.Simulate(p.build(), p.devices, p.spec)
	if err != nil {
		simErr = err
	}
	_, events, err := sim.SimulateTrace(p.comp, p.devices, p.spec)
	if err != nil {
		simErr = err
	}
	if simErr != nil {
		return simErr
	}
	if transformed.StepTime > 0 {
		rec.observe("sim.modeled_speedup_x", baseline.StepTime/transformed.StepTime)
	}
	rec.observe("sim.modeled_overlap_eff", sim.Attribute(events).OverlapEfficiency())

	probeEinsums(rec, p, reps)
	probeWire(rec, p)
	return nil
}

// einsumSite is one einsum instruction of the program: its spec, its
// operand shapes, and how many times one device executes it per run.
type einsumSite struct {
	spec   string
	shapes [][]int
	count  int
}

func einsumSites(c *hlo.Computation, times int, out []einsumSite) []einsumSite {
	for _, in := range c.Instructions() {
		switch {
		case in.Op == hlo.OpEinsum && len(in.Operands) == 2:
			out = append(out, einsumSite{in.EinsumSpec, [][]int{in.Operands[0].Shape, in.Operands[1].Shape}, times})
		case in.Op == hlo.OpLoop:
			out = einsumSites(in.Body, times*in.TripCount, out)
		case in.Body != nil:
			out = einsumSites(in.Body, times, out)
		}
	}
	return out
}

// probeEinsums runs tensor.Einsum standalone over every einsum of the
// program, at its shapes and per-run count, on fixed operands (so
// repeats hit the pack cache the way the site's constant weight does).
// flop_per_op is exact, from the shapes; the times are for all devices'
// einsums executed back to back by one caller.
func probeEinsums(rec *recorder, p *program, reps int) {
	sites := einsumSites(p.comp, 1, nil)
	rng := rand.New(rand.NewSource(1))
	type prepared struct {
		einsumSite
		lhs, rhs *tensor.Tensor
	}
	var work []prepared
	var flops int64
	for _, s := range sites {
		es, err := tensor.ParseEinsum(s.spec)
		if err != nil {
			continue
		}
		f, err := es.Flops(s.shapes...)
		if err != nil {
			continue
		}
		flops += f * int64(s.count) * int64(p.devices)
		work = append(work, prepared{s, tensor.Rand(rng, s.shapes[0]...), tensor.Rand(rng, s.shapes[1]...)})
	}
	ms := timeMS(reps, func() {
		for d := 0; d < p.devices; d++ {
			for _, w := range work {
				for i := 0; i < w.count; i++ {
					tensor.Einsum(w.spec, w.lhs, w.rhs)
				}
			}
		}
	})
	rec.observe("tensor.flop_per_op", float64(flops))
	rec.observe("tensor.einsum_ms_per_op", ms)
	if ms > 0 {
		rec.observe("tensor.gflops", float64(flops)/ms/1e6)
	}
}

// probeWire runs the process transport's frame codec standalone on the
// program's first asynchronous transfer (the site's shard).
func probeWire(rec *recorder, p *program) {
	var start *hlo.Instruction
	p.comp.Walk(func(in *hlo.Instruction) {
		if start == nil && in.Op == hlo.OpCollectivePermuteStart {
			start = in
		}
	})
	if start == nil {
		return
	}
	payload := tensor.Rand(rand.New(rand.NewSource(1)), start.Operands[0].Shape...)
	fr := wire.Frame{Src: 0, Dst: 1, Name: start.Name, Shape: payload.Shape(), Data: payload.Data()}
	var buf bytes.Buffer
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		buf.Reset()
		if err := wire.WriteFrame(&buf, &fr); err != nil {
			return
		}
	}
	rec.observe("wire.encode_us", time.Since(t0).Seconds()*1e6/reps)
	rec.observe("wire.frame_bytes", float64(buf.Len()))
	encoded := buf.Bytes()
	var back wire.Frame
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		if err := wire.ReadFrame(bytes.NewReader(encoded), &back); err != nil {
			return
		}
	}
	rec.observe("wire.decode_us", time.Since(t0).Seconds()*1e6/reps)
}

// probeCompile runs autotune.Compile once on the untransformed program
// with the daemon's cold-path settings, and DecodePlan on the result.
// Compile's ApplyBest leaves the winner's split-K factor in the
// process-global kernel knob; the probe puts the ambient value back so
// the runs after it execute what the runs before it did.
func probeCompile(rec *recorder, p *program) error {
	ambient := tensor.KernelSplitK()
	defer tensor.SetKernelSplitK(ambient)
	before := readCounters()
	t0 := time.Now()
	plan, err := autotune.Compile(p.build(), p.devices, p.args, autotune.Options{
		Spec: p.spec, TopK: 2, TimeScale: 50, DisableCache: true, Calibrate: true,
	})
	if err != nil {
		return err
	}
	rec.observe("autotune.compile_ms_p50", time.Since(t0).Seconds()*1e3)
	observeCompiles(rec, readCounters().since(before), 1)
	rec.observe("autotune.baseline_wins", indicator(plan.Baseline))
	return observePlan(rec, plan)
}

func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// observeCompiles observes the autotuner's own counters over a span
// that held the given number of compiles.
func observeCompiles(rec *recorder, d counters, compiles float64) {
	if compiles == 0 {
		return
	}
	rec.observe("autotune.candidates", d["overlap_autotune_candidates_total"]/compiles)
	rec.observe("autotune.executions", d["overlap_autotune_executions_total"]/compiles)
	rec.observe("autotune.residual", readCounters()["overlap_autotune_calibration_residual"])
}

func observePlan(rec *recorder, plan *autotune.Plan) error {
	data, err := plan.EncodeJSON()
	if err != nil {
		return err
	}
	rec.observe("autotune.plan_kb", float64(len(data))/1024)
	var decodeErr error
	rec.observe("autotune.decode_ms", timeMS(5, func() { _, decodeErr = autotune.DecodePlan(data) }))
	return decodeErr
}

// compareForms runs two forms of one program interleaved, pairs times,
// and returns the ratio of the first form's median step time to the
// second's. It is how core.speedup_vs_rolled_x (rolled ÷ decomposed)
// and runtime.proc_vs_chan_x (proc ÷ chan) are measured: interleaving
// keeps the box's drift out of the ratio.
func compareForms(pairs int, a, b func() (float64, error)) (float64, error) {
	var ta, tb []float64
	for i := 0; i < pairs; i++ {
		x, err := a()
		if err != nil {
			return 0, err
		}
		y, err := b()
		if err != nil {
			return 0, err
		}
		ta, tb = append(ta, x), append(tb, y)
	}
	return median(ta) / median(tb), nil
}

// stepRunner returns a function that runs the computation once and
// returns the caller-observed wall time in milliseconds.
func stepRunner(c *hlo.Computation, p *program, opts runtime.Options) func() (float64, error) {
	return func() (float64, error) {
		t0 := time.Now()
		_, err := runtime.Run(c, p.devices, p.args, opts)
		return time.Since(t0).Seconds() * 1e3, err
	}
}

// rolledForm builds the program's Rolled twin: the same sites emitted
// as counted loops, which cannot be software-pipelined.
func rolledForm(p *program) (*hlo.Computation, error) {
	o := p.pipeline
	o.Rolled = true
	c := p.build()
	_, err := core.Apply(c, o)
	return c, err
}

// spansOf converts a decoded RunTrace's spans back into the analyzer's
// span stream (seconds).
func spansOf(rt *obs.RunTrace) []obs.Span {
	out := make([]obs.Span, len(rt.Spans))
	for i, s := range rt.Spans {
		out[i] = obs.Span{Device: s.Device, Track: s.Track, Cat: s.Cat, Name: s.Name, Start: s.StartMS / 1e3, Dur: s.DurMS / 1e3}
	}
	return out
}
