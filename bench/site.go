package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// The golden site of the wallclock and transport experiments: one
// AllGather feeding one einsum whose rhs is transposed, so every
// partial einsum of the decomposition packs it.
const (
	siteDevices = 4
	siteM       = 4
	siteK       = 8192
	siteN       = 256
	siteWarmups = 3
)

// siteRunner is one set-up site_* workload: the decomposed program, its
// seeded arguments, and the interpreter's result every run must equal
// bit for bit.
type siteRunner struct {
	prog *program
	opts runtime.Options
	want []*tensor.Tensor
}

func buildSite() *hlo.Computation {
	groups := topology.NewRing(siteDevices).AxisGroups(0)
	c := hlo.NewComputation("site")
	a := c.Parameter(0, "a", []int{siteM, siteK})
	w := c.Parameter(1, "w", []int{siteN, siteK})
	c.Einsum("mk,nk->mn", c.AllGather(a, 0, groups), w)
	return c
}

func siteArgs(seed int64) [][]*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	shards := make([]*tensor.Tensor, siteDevices)
	for d := range shards {
		shards[d] = tensor.Rand(rng, siteM, siteK)
	}
	return [][]*tensor.Tensor{shards, {tensor.Rand(rng, siteN, siteK)}}
}

// sitePipeline is the paper's deployed configuration with the per-site
// cost gate off, so the site is always decomposed.
func sitePipeline(spec machine.Spec) core.Options {
	o := core.DefaultOptions(spec)
	o.UseCostModel = false
	return o
}

func newSite(seed int64, timeScale float64, transport runtime.TransportKind) (*siteRunner, error) {
	spec := machine.TPUv4()
	p := &program{build: buildSite, pipeline: sitePipeline(spec), devices: siteDevices, spec: spec, args: siteArgs(seed)}
	if err := p.compile(); err != nil {
		return nil, err
	}
	s := &siteRunner{prog: p, opts: runtime.Options{Spec: spec, TimeScale: timeScale, Transport: transport}}

	want, err := sim.Interpret(p.comp, p.devices, p.args)
	if err != nil {
		return nil, fmt.Errorf("site: interpreter: %w", err)
	}
	if err := checkAgainstNaive(p.args, want); err != nil {
		return nil, err
	}
	s.want = want
	for i := 0; i < siteWarmups; i++ {
		if sm := s.run(nil); sm.failed {
			return nil, fmt.Errorf("site: warm-up run %d failed its output check", i)
		}
	}
	return s, nil
}

// checkAgainstNaive recomputes AllGather(a)·wᵀ with an independent
// triple loop and requires every device's interpreted result to agree
// within 1e-9 of the largest reference magnitude.
func checkAgainstNaive(args [][]*tensor.Tensor, got []*tensor.Tensor) error {
	w := args[1][0].Data()
	ref := make([]float64, siteDevices*siteM*siteN)
	scale := 0.0
	for d, shard := range args[0] {
		a := shard.Data()
		for i := 0; i < siteM; i++ {
			for j := 0; j < siteN; j++ {
				sum := 0.0
				for k := 0; k < siteK; k++ {
					sum += a[i*siteK+k] * w[j*siteK+k]
				}
				ref[(d*siteM+i)*siteN+j] = sum
				scale = math.Max(scale, math.Abs(sum))
			}
		}
	}
	for d, t := range got {
		data := t.Data()
		if len(data) != len(ref) {
			return fmt.Errorf("site: device %d result has %d elements, want %d", d, len(data), len(ref))
		}
		for i, v := range data {
			if math.Abs(v-ref[i]) > 1e-9*scale {
				return fmt.Errorf("site: device %d element %d = %g, naive reference %g", d, i, v, ref[i])
			}
		}
	}
	return nil
}

func (s *siteRunner) close() {}

func (s *siteRunner) segment(n int, rec *recorder) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i] = s.run(rec)
	}
	return out
}

// run executes the site once. The measured interval is the runtime.Run
// call alone; with a recorder the run is traced and the layer work that
// follows (attribution, trace encoding, the output check) is recorded
// in its own spans outside that interval.
func (s *siteRunner) run(rec *recorder) sample {
	opts := s.opts
	opts.Trace = rec != nil
	t0 := time.Now()
	res, err := runtime.Run(s.prog.comp, s.prog.devices, s.prog.args, opts)
	t1 := time.Now()
	sm := sample{ms: t1.Sub(t0).Seconds() * 1e3, failed: err != nil}
	if err == nil {
		for d := range s.want {
			if !res.Values[d].Equal(s.want[d]) {
				sm.failed = true
			}
		}
	}
	if rec == nil || err != nil {
		return sm
	}

	op := rec.newOp()
	root := rec.add(op, 0, layerBench, "op", t0, t1)
	call := rec.add(op, root, layerRuntime, "runtime.Run", t0, t1)
	spans := sim.Spans(res.Trace)
	// Run start to the first device span is the fabric coming up: on
	// the process transport, four workers spawned and wired.
	spawn := firstDeviceSpanMS(spans)
	rec.observe("wire.spawn_ms", spawn)
	rec.addUS(span{Op: op, Parent: call, Layer: layerWire, Name: "fabric.start", StartUS: rec.us(t0), EndUS: rec.us(t0) + spawn*1e3, Reported: true})
	recordDeviceEvents(rec, op, call, t0, t1, spans)
	recordBreakdown(rec, sm.ms, res.Breakdown.StepTime*1e3, res.Breakdown.Compute*1e3,
		res.Breakdown.CollectiveWire*1e3, res.Breakdown.Exposed*1e3)

	var rep obs.AttributionReport
	rec.observe("obs.attribute_ms", rec.timed(op, 0, layerObs, "obs.Attribute", func() { rep = obs.Attribute(spans) }))
	var rt *obs.RunTrace
	var encoded []byte
	rec.observe("obs.encode_ms", rec.timed(op, 0, layerObs, "RunTrace.EncodeJSON", func() {
		rt = obs.NewRunTrace(res.RunID, "run", spans)
		encoded, _ = rt.EncodeJSON()
	}))
	rec.observe("obs.events_per_op", float64(len(res.Trace)))
	rec.observe("obs.trace_kb", float64(len(encoded))/1024)
	recordAttribution(rec, rep, rt, s.prog.devices)
	return sm
}

// recordDeviceEvents places the program's own per-instruction events
// under the call span that produced them. Device 0's compute-track
// events become children: compute is tensor; a blocking collective's
// wait is wire; a stall on an asynchronous done is wire for as long as
// the wire time device 0 itself put on its links can account for it,
// and past that it is the runtime waiting for a peer that is still
// computing (all of it on site_compute, which injects no wire). The
// call's self time is then what the runtime spent in none of them.
// Transfer-track events ride along as async wire spans. SPMD symmetry
// makes device 0 representative.
func recordDeviceEvents(rec *recorder, op, parent int, start, end time.Time, spans []obs.Span) {
	base, limit := rec.us(start), rec.us(end)
	wireBudget := 0.0 // microseconds of injected wire not yet matched to a stall
	for _, s := range spans {
		if s.Device == 0 && s.Track == obs.TrackTransfer && s.Cat == obs.CatTransfer {
			wireBudget += s.Dur * 1e6
		}
	}
	add := func(layer, name string, lo, hi float64, async bool) {
		if hi = math.Min(hi, limit); hi > lo {
			rec.addUS(span{Op: op, Parent: parent, Layer: layer, Name: name, StartUS: lo, EndUS: hi, Reported: true, Async: async})
		}
	}
	for _, s := range spans {
		if s.Device != 0 {
			continue
		}
		lo, hi, name := base+s.Start*1e6, base+(s.Start+s.Dur)*1e6, s.Cat+":"+s.Name
		switch {
		case s.Track == obs.TrackTransfer:
			add(layerWire, name, lo, hi, true)
		case s.Cat == obs.CatCompute:
			add(layerTensor, name, lo, hi, false)
		case s.Cat == obs.CatStall:
			onWire := math.Min(hi-lo, wireBudget)
			wireBudget -= onWire
			add(layerWire, name, lo, lo+onWire, false)
			add(layerRuntime, "peer-wait:"+s.Name, lo+onWire, hi, false)
		default:
			add(layerWire, name, lo, hi, false)
		}
	}
}

// recordBreakdown observes the runtime layer's step decomposition, all
// in milliseconds: overhead is what the step spent in neither compute
// nor communication wait, call overhead what the caller waited beyond
// the step (engine set-up, fabric start and shutdown, result assembly).
func recordBreakdown(rec *recorder, wallMS, step, compute, wire, exposed float64) {
	rec.observe("runtime.step_ms", step)
	rec.observe("runtime.compute_ms", compute)
	rec.observe("runtime.wire_ms", wire)
	rec.observe("runtime.exposed_ms", exposed)
	rec.observe("runtime.overhead_ms", step-compute-exposed)
	rec.observe("runtime.call_overhead_ms", wallMS-step)
}

// recordAttribution observes the overlap attribution of one traced
// run: per-device hidden and exposed wire time, stalls, and how many
// collectives the RunTrace verdicts call hidden, partial or exposed.
func recordAttribution(rec *recorder, rep obs.AttributionReport, rt *obs.RunTrace, devices int) {
	n := float64(devices)
	if rep.TotalWire*1e3/n < 0.1 {
		return // under 100 µs of wire per device (site_compute: about 11): nothing to hide, efficiency undefined
	}
	rec.observe("runtime.overlap_eff", rep.OverlapEfficiency())
	rec.observe("runtime.hidden_wire_ms", rep.TotalHidden*1e3/n)
	rec.observe("runtime.exposed_wire_ms", (rep.TotalWire-rep.TotalHidden)*1e3/n)
	rec.observe("runtime.stall_ms", rep.StallSeconds*1e3/n)
	verdicts := map[string]string{}
	for _, s := range rt.Spans {
		if s.Verdict != "" {
			verdicts[s.Name] = s.Verdict
		}
	}
	count := map[string]float64{}
	for _, v := range verdicts {
		count[v]++
	}
	rec.observe("runtime.collectives_hidden", count[obs.VerdictHidden])
	rec.observe("runtime.collectives_partial", count[obs.VerdictPartial])
	rec.observe("runtime.collectives_exposed", count[obs.VerdictExposed])
}

// firstDeviceSpanMS is the time from run start to the first
// compute-track span on any device: on the process transport, the cost
// of spawning and wiring the workers.
func firstDeviceSpanMS(spans []obs.Span) float64 {
	first := math.Inf(1)
	for _, s := range spans {
		if s.Track == obs.TrackCompute {
			first = math.Min(first, s.Start)
		}
	}
	if math.IsInf(first, 1) {
		return 0
	}
	return first * 1e3
}
