package main

import "encoding/json"

// runSeconds is BENCHMARK.json's run_seconds: the op counts below are
// sized so that one measured pass takes about this long at the commit
// that defined the benchmark, on the 2-core reference box. The counts
// are constants and the pass is never cut by a clock, so two commits do
// identical work. The driver passes -seconds with this value; any other
// is refused.
const runSeconds = 10

// passSegments is how many equal segments the measured pass is cut into.
// A metric's value is taken over the whole pass; the per-segment values
// and their spread are recorded beside it, so a reader (and -compare)
// can tell noise inside a run from change between runs.
const passSegments = 3

// workloadSpec names one workload, why it exists, and its fixed sizes.
type workloadSpec struct {
	Name string
	Why  string
	// ops is the measured pass's op count and tracedOps the traced
	// pass's. setups is how many times the untraced pass sets the workload
	// up (setup_s is the median): more where one is cheap.
	ops, tracedOps, setups int
	// unit is how many ops are sent together and so the smallest count
	// that can run: serve_cold posts every fingerprint from both clients
	// at once.
	unit int
	// once marks a workload whose inputs can each be sent only once (a
	// cold fingerprint is cold one time, and they cost 40 to 700 ms): its
	// segments hold different work, so no spread is taken over them, and
	// the traced pass has no untraced twin to alternate with.
	once bool
}

// workloads lists the six workloads in the order a full run executes
// them. The why strings are BENCHMARK.json's and must stay one line of
// at most 200 characters; README.md carries the long form.
var workloads = []workloadSpec{
	{"site_compute", "Golden AllGather-einsum site (4 dev, m4 k8192 n256), TimeScale 0, chan, 150 runtime.Run, 1 caller: no injected wire, so tensor kernels and the runtime device loop do all the work.", 150, 40, 5, 1, false},
	{"site_overlap", "Same site, TimeScale 4000 (29.5 ms wire vs 26 ms compute), chan, 120 runs, 1 caller: wire and compute balanced, so scheduling moves hidden/exposed time and a kernel gain is capped by the wire.", 120, 40, 5, 1, false},
	{"site_proc", "Same as site_overlap on TransportProc (4 workers spawned per run), 102 runs, 1 caller: serialize, socket, deserialize and spawn do the extra work; a chan gain that costs proc shows here.", 102, 40, 5, 1, false},
	{"train_megatron", "Megatron fwd+bwd+SGD, 4 dev, 2 layers, model 128 hidden 512 tokens 128, TimeScale 2000, LR 2^-10, 102 steps (3 Execute x 34): ReduceScatter direction, weights change so the pack cache misses.", 102, 40, 3, 1, false},
	{"serve_warm", "900 POST /v1/run, closed loop, 2 keep-alive clients, plans precompiled: 11 models x devices 4 dim 8 plus 25% train (megatron, ddp): request in, digest out on the hot path.", 900, 400, 3, 1, false},
	{"serve_cold", "Fresh server, 54 never-seen fingerprints (11 models x dim 4,8 x devices 2,4 + 10 train), both clients POST each at once (108 POSTs): autotune.Compile does nearly all the work; singleflight counted.", 108, 36, 5, serveClients, true},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec is one named metric: its unit, which direction is better,
// and for end-to-end metrics the share of the baseline by which it may
// worsen before -compare calls it a regression. Gated marks the
// end-to-end metrics BENCHMARK.json lists, which the driver holds every
// later change to.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Gated  bool
}

// endToEnd lists the eight end-to-end metrics, measured with tracing
// off; every workload reports all of them, and -compare gives every one
// a verdict (unresolved where the change is within the segment spread).
//
// Only three are Gated, that is, listed in BENCHMARK.json. The driver
// accepts a gated metric only if ten runs of one commit, minutes apart,
// agree within its bound (at most 25%). On the shared 2-vCPU reference
// box no wall- or CPU-time metric can promise that: a 900 s trace of
// site_compute ops has 60 s-window medians from 52 to 67 ms, in
// stretches minutes long, and the ten-run spreads of op_ms_p50,
// op_ms_p90, ops_per_s and cpu_ms_per_op on the CPU-bound workloads
// measured 4-12% in a quiet half-hour and 25-47% in a noisy one
// (bench/README.md has the account). Those four are
// reported by every run and are the per_layer metrics bench.* of the
// traced pass, so a later change can cite them and prove a gain on them
// by alternating paired runs, but the driver does not gate on them.
// fail_frac is always 0 on a healthy commit and a gated metric may not
// be; the driver contract carries it as failed/attempted.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, true},
	{"op_ms_p50", "ms", "lower", 0.10, false},
	{"op_ms_p90", "ms", "lower", 0.15, false},
	{"ops_per_s", "1/s", "higher", 0.10, false},
	{"cpu_ms_per_op", "ms", "lower", 0.10, false},
	{"alloc_kb_per_op", "KiB", "lower", 0.25, true},
	{"peak_rss_mb", "MiB", "lower", 0.25, true},
	{"fail_frac", "ratio", "lower", 0, false},
}

// gated returns the end-to-end metrics BENCHMARK.json lists.
func gated() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if m.Gated {
			out = append(out, m)
		}
	}
	return out
}

// perLayer lists the traced pass's metrics, <layer>.<metric>. They are
// never gated. Every workload emits every name; a metric that does not
// apply to a workload (serve.* on a site, wire.serialize_ms on chan) is
// emitted as 0 and flagged "na" in the result file.
var perLayer = []metricSpec{
	// The op as its caller sees it with tracing off: the ungated timing
	// metrics, from the traced pass's untraced blocks (served runs always
	// trace, so for serve_* from the pass's own ops).
	{Name: "bench.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "bench.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.cpu_ms_per_op", Unit: "ms", Better: "lower"},

	{Name: "hlo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "hlo.roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "hlo.instructions", Unit: "count", Better: "lower"},
	{Name: "hlo.peak_live_kb", Unit: "KiB", Better: "lower"},

	{Name: "core.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sites_decomposed", Unit: "count", Better: "higher"},
	{Name: "core.async_pairs", Unit: "count", Better: "higher"},
	{Name: "core.speedup_vs_rolled_x", Unit: "x", Better: "higher"},

	{Name: "sim.interpret_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.simulate_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.modeled_speedup_x", Unit: "x", Better: "higher"},
	{Name: "sim.modeled_overlap_eff", Unit: "ratio", Better: "higher"},
	{Name: "sim.eff_gap", Unit: "ratio", Better: "lower"},

	{Name: "tensor.einsum_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "tensor.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.flop_per_op", Unit: "count", Better: "lower"},
	{Name: "tensor.gemm_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "tensor.pack_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "tensor.pack_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "tensor.scratch_fresh_kb_per_op", Unit: "KiB", Better: "lower"},

	{Name: "runtime.step_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.exposed_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.call_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.overlap_eff", Unit: "ratio", Better: "higher"},
	{Name: "runtime.hidden_wire_ms", Unit: "ms", Better: "higher"},
	{Name: "runtime.exposed_wire_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.stall_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.collectives_hidden", Unit: "count", Better: "higher"},
	{Name: "runtime.collectives_partial", Unit: "count", Better: "lower"},
	{Name: "runtime.collectives_exposed", Unit: "count", Better: "lower"},
	{Name: "runtime.instr_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.transfers_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.transfer_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "runtime.allocs_per_instr", Unit: "count", Better: "lower"},
	{Name: "runtime.proc_vs_chan_x", Unit: "x", Better: "lower"},

	{Name: "wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower"},
	{Name: "wire.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.serialize_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.deserialize_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.spawn_ms", Unit: "ms", Better: "lower"},

	{Name: "autotune.compile_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "autotune.candidates", Unit: "count", Better: "lower"},
	{Name: "autotune.executions", Unit: "count", Better: "lower"},
	{Name: "autotune.plan_kb", Unit: "KiB", Better: "lower"},
	{Name: "autotune.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "autotune.residual", Unit: "ratio", Better: "lower"},
	{Name: "autotune.baseline_wins", Unit: "count", Better: "lower"},

	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.plan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.admission_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.unaccounted_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.plan_hit", Unit: "count", Better: "higher"},
	{Name: "serve.plan_miss", Unit: "count", Better: "lower"},
	{Name: "serve.plan_coalesced", Unit: "count", Better: "higher"},
	{Name: "serve.compiles", Unit: "count", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.overlap_eff_mean", Unit: "ratio", Better: "higher"},
	{Name: "serve.trace_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.setup_passes", Unit: "count", Better: "lower"},
	{Name: "serve.key_drift", Unit: "count", Better: "lower"},

	{Name: "train.build_ms", Unit: "ms", Better: "lower"},
	{Name: "train.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "train.feed_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "train.final_loss", Unit: "loss", Better: "lower"},
	{Name: "train.hidden_frac", Unit: "ratio", Better: "higher"},
	{Name: "train.modeled_hidden_frac", Unit: "ratio", Better: "higher"},

	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.events_per_op", Unit: "count", Better: "lower"},
	{Name: "obs.attribute_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_kb", Unit: "KiB", Better: "lower"},

	// Where the traced op's wall time went, by layer self time (a span
	// minus what its children cover); the shares sum to 1.
	{Name: "share.tensor", Unit: "ratio", Better: "lower"},
	{Name: "share.wire", Unit: "ratio", Better: "lower"},
	{Name: "share.runtime", Unit: "ratio", Better: "lower"},
	{Name: "share.serve", Unit: "ratio", Better: "lower"},
	{Name: "share.compile", Unit: "ratio", Better: "lower"},
	{Name: "share.train", Unit: "ratio", Better: "lower"},
	{Name: "share.unaccounted", Unit: "ratio", Better: "lower"},
}

// manifestJSON renders BENCHMARK.json from the tables above, so the
// committed file and the program cannot disagree (bench_test.go
// compares them byte for byte).
func manifestJSON() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, m := range gated() {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
