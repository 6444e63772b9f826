package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	overlaprt "overlap/internal/runtime"
)

// newRunner sets one workload up, through its last warm-up op, for a
// pass of ops ops (the serve workloads lay out their request sequence
// in set-up).
func newRunner(w workloadSpec, ops int, seed int64, rec *recorder) (runner, error) {
	switch w.Name {
	case "site_compute":
		return newSite(seed, 0, overlaprt.TransportChan)
	case "site_overlap":
		return newSite(seed, 4000, overlaprt.TransportChan)
	case "site_proc":
		return newSite(seed, 4000, overlaprt.TransportProc)
	case "train_megatron":
		t, err := newTrain(seed)
		if err == nil {
			t.singleStep = rec != nil
		}
		return t, err
	case "serve_warm", "serve_cold":
		return newServe(w.once, ops, seed, rec)
	}
	return nil, fmt.Errorf("bench: unknown workload %q", w.Name)
}

// Metrics whose observations add up (or average) instead of taking the
// median.
var (
	summedMetrics = map[string]bool{
		"serve.plan_hit": true, "serve.plan_miss": true, "serve.plan_coalesced": true,
		"autotune.baseline_wins": true,
	}
	meanMetrics = map[string]bool{"serve.batch_size_mean": true, "serve.overlap_eff_mean": true}
	// needCores are the numbers that only mean something with more than
	// one core: a one-core host emits them flagged, not as results.
	needCores = map[string]bool{"tensor.gflops": true, "tensor.einsum_ms_per_op": true}
)

// tracedPass runs the separate traced pass: set up once, then blocks of
// untraced and traced ops alternating (so the two medians that give
// obs.trace_overhead_frac see the same drift), with the program's own
// counters read around the traced blocks; then the standalone layer
// probes. It returns the per-layer metrics and writes the span file.
func tracedPass(w workloadSpec, seed int64, outDir string) (*result, error) {
	rec := newRecorder()
	start := readCounters()
	r, err := newRunner(w, w.tracedOps, seed, rec)
	if err != nil {
		return nil, err
	}
	defer r.close()

	res := &result{Workload: w.Name, Traced: true, Host: hostFacts(seed), Metrics: map[string]metric{}}
	_, isServe := r.(*serveRunner)
	blocks := 4
	if isServe || w.tracedOps < blocks*w.unit {
		// Served runs always trace; there is no untraced twin to
		// alternate with, and a cold fingerprint can be sent only once.
		blocks = 1
	}
	per := w.tracedOps / blocks / w.unit * w.unit

	var plain segmentStats // the ops bench.* describes
	var traced []float64
	delta := counters{}
	var mallocs uint64
	for b := 0; b < blocks; b++ {
		if !isServe {
			cpu0, t0 := cpuSeconds(), time.Now()
			samples := r.segment(per, nil)
			plain.wall, plain.cpu = plain.wall+time.Since(t0).Seconds(), plain.cpu+cpuSeconds()-cpu0
			plain.lat = append(plain.lat, res.tally(samples)...)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := readCounters()
		cpu0, t0 := cpuSeconds(), time.Now()
		samples := r.segment(per, rec)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		d := readCounters().since(c0)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		for k, v := range d {
			delta[k] += v
		}
		traced = append(traced, res.tally(samples)...)
		if isServe {
			plain = segmentStats{lat: traced, wall: wall, cpu: cpu}
		}
	}
	ops := float64(len(traced))
	for _, tm := range timingMetrics {
		rec.observe("bench."+tm.name, tm.of(plain))
	}

	observeCounters(rec, delta, float64(mallocs), ops)

	var prog *program
	switch rr := r.(type) {
	case *siteRunner:
		prog = rr.prog
		if err := siteExtras(rec, rr); err != nil {
			return nil, err
		}
	case *trainRunner:
		prog = rr.layr
		if err := trainExtras(rec, rr); err != nil {
			return nil, err
		}
	case *serveRunner:
		prog = rr.layr
		rec.observe("serve.compiles", delta["overlap_serve_compiles_total"])
		rec.observe("serve.rejected", delta["overlap_serve_overload_total"])
		// The autotuner's counters cover set-up too: on serve_warm that
		// is where every compile happens.
		all := readCounters().since(start)
		observeCompiles(rec, all, all["overlap_serve_compiles_total"])
		rr.finish(rec)
		if err := serveTraceOverhead(rec, rr.layr, comparePairs); err != nil {
			return nil, err
		}
	}
	if !isServe {
		rec.observe("obs.trace_overhead_frac", median(traced)/median(plain.lat)-1)
	}
	if err := probeLayers(rec, prog, probeReps); err != nil {
		return nil, err
	}
	if !isServe {
		if err := probeCompile(rec, prog); err != nil {
			return nil, err
		}
	}
	if eff, ok := rec.obs["runtime.overlap_eff"]; ok {
		rec.observe("sim.eff_gap", median(rec.obs["sim.modeled_overlap_eff"])-median(eff))
	}

	// Shares of the traced op's wall time, by layer self time.
	self, opTotal := rec.selfTimes()
	if opTotal > 0 {
		for layer, name := range map[string]string{
			layerTensor: "share.tensor", layerWire: "share.wire", layerRuntime: "share.runtime",
			layerServe: "share.serve", layerCompile: "share.compile", layerTrain: "share.train",
			layerBench: "share.unaccounted",
		} {
			rec.observe(name, self[layer]/opTotal)
		}
	}

	oneCore := runtime.GOMAXPROCS(0) == 1
	for _, spec := range perLayer {
		vals, ok := rec.obs[spec.Name]
		m := metric{Unit: spec.Unit, NA: !ok, Unverified: ok && oneCore && needCores[spec.Name]}
		switch {
		case summedMetrics[spec.Name]:
			m.Value = mean(vals) * float64(len(vals))
			m.NA = false // a count nobody observed is a real zero
		case meanMetrics[spec.Name]:
			m.Value = mean(vals)
		default:
			m.Value = median(vals)
		}
		res.Metrics[spec.Name] = m
	}
	if err := rec.writeTrace(filepath.Join(outDir, w.Name+".trace.json"), res); err != nil {
		return nil, err
	}
	return res, nil
}

// observeCounters turns the program's own counter deltas over the
// traced ops into per-op metrics: exact counts, not times.
func observeCounters(rec *recorder, delta counters, mallocs, ops float64) {
	instr := delta["overlap_runtime_instructions_total"]
	rec.observe("runtime.instr_per_op", instr/ops)
	rec.observe("runtime.transfers_per_op", delta["overlap_runtime_transfers_total"]/ops)
	rec.observe("runtime.transfer_kb_per_op", delta["overlap_runtime_transfer_bytes_total"]/1024/ops)
	if instr > 0 {
		rec.observe("runtime.allocs_per_instr", mallocs/instr)
	}
	rec.observe("tensor.gemm_calls_per_op", delta["overlap_kernel_gemm_total"]/ops)
	if packs := delta["overlap_kernel_pack_hits_total"] + delta["overlap_kernel_pack_misses_total"]; packs > 0 {
		rec.observe("tensor.pack_hit_frac", delta["overlap_kernel_pack_hits_total"]/packs)
	}
	rec.observe("tensor.pack_kb_per_op", delta["overlap_kernel_pack_bytes_total"]/1024/ops)
	rec.observe("tensor.scratch_fresh_kb_per_op", delta["overlap_kernel_pool_fresh_bytes_total"]/1024/ops)
	rec.observe("wire.frames_per_op", delta["overlap_runtime_wire_frames_total"]/ops)
	rec.observe("wire.serialize_ms", delta["overlap_runtime_serialize_span_seconds_sum"]*1e3/ops)
	rec.observe("wire.deserialize_ms", delta["overlap_runtime_deserialize_span_seconds_sum"]*1e3/ops)
}

// comparePairs is how many interleaved pairs the two-form comparisons
// run (train, whose step is twice as long, runs half as many) and
// probeReps how many times a standalone layer probe repeats (its median
// is reported). Variables only so the test can shrink them.
var (
	comparePairs = 24
	probeReps    = 5
)

// siteExtras measures the decomposed site against its Rolled twin and,
// on the process transport, against the same program on chan.
func siteExtras(rec *recorder, s *siteRunner) error {
	rolled, err := rolledForm(s.prog)
	if err != nil {
		return err
	}
	x, err := compareForms(comparePairs, stepRunner(rolled, s.prog, s.opts), stepRunner(s.prog.comp, s.prog, s.opts))
	if err != nil {
		return err
	}
	rec.observe("core.speedup_vs_rolled_x", x)
	if s.opts.Transport == overlaprt.TransportProc {
		onChan := s.opts
		onChan.Transport = overlaprt.TransportChan
		x, err := compareForms(comparePairs, stepRunner(s.prog.comp, s.prog, s.opts), stepRunner(s.prog.comp, s.prog, onChan))
		if err != nil {
			return err
		}
		rec.observe("runtime.proc_vs_chan_x", x)
	}
	return nil
}

// trainExtras measures the training step against its Rolled twin (one
// step per call, interleaved) and reports the loss the longest measured
// trajectory reached.
func trainExtras(rec *recorder, t *trainRunner) error {
	rec.observe("train.final_loss", t.trajectory[len(t.trajectory)-1].Loss)
	rec.observe("train.build_ms", timeMS(5, func() { t.layr.build() }))

	rolled, prog := *t, *t.prog
	var err error
	if prog.Comp, err = rolledForm(t.layr); err != nil {
		return err
	}
	rolled.prog = &prog
	step := func(r *trainRunner) func() (float64, error) {
		return func() (float64, error) {
			res, err := r.execute(1, nil)
			if err != nil {
				return 0, err
			}
			return res.Steps[0].StepSeconds * 1e3, nil
		}
	}
	x, err := compareForms(comparePairs/2, step(&rolled), step(t))
	if err != nil {
		return err
	}
	rec.observe("core.speedup_vs_rolled_x", x)
	return nil
}

// serveTraceOverhead measures what always-on tracing costs a served
// run: the representative layer program, run directly at the daemon's
// wire scale, traced against untraced, interleaved.
func serveTraceOverhead(rec *recorder, p *program, pairs int) error {
	opts := overlaprt.Options{Spec: p.spec, TimeScale: 50}
	traced := opts
	traced.Trace = true
	x, err := compareForms(pairs, stepRunner(p.comp, p, traced), stepRunner(p.comp, p, opts))
	if err != nil {
		return err
	}
	rec.observe("obs.trace_overhead_frac", x-1)
	return nil
}
