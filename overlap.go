// Package overlap reproduces "Overlap Communication with Dependent
// Computation via Decomposition in Large Deep Learning Models"
// (Wang et al., ASPLOS 2023) as a self-contained Go library.
//
// The package is a thin facade over the implementation packages, listed
// from the bottom layer up (each imports only packages listed before
// it):
//
//   - internal/obs — telemetry: the metrics registry, spans, the run
//     trace artifact and the overlap-attribution analyzer;
//   - internal/tensor — dense tensors and the einsum kernel engine,
//     bit-identical to its scalar reference at any worker count;
//   - internal/hlo — the XLA-HLO-like dataflow IR the passes operate on;
//   - internal/topology — device meshes: rings and tori;
//   - internal/machine — the TPU-v4-like machine model;
//   - internal/collective — what each collective computes;
//   - internal/partition — intra-layer (tensor) model parallelism:
//     shardings, einsum propagation, collective insertion;
//   - internal/grad — reverse-mode differentiation, transposing
//     collectives;
//   - internal/models — the paper's Table 1 / Table 2 workloads;
//   - internal/core — the paper's contribution: Looped CollectiveEinsum
//     decomposition, asynchronous CollectivePermute scheduling, loop
//     unrolling, bidirectional transfer, fusion rewrites, cost model;
//   - internal/sim — a functional SPMD interpreter (correctness) and a
//     discrete-event timing simulator (performance);
//   - internal/runtime — the concurrent executor: a program compiled
//     once to a per-device tape, run on one goroutine per device over
//     channel or process links;
//   - internal/autotune — the measured variant search and its one
//     record, the Plan, stored under its fingerprint;
//   - internal/train — fwd+bwd+SGD training steps;
//   - internal/serve — the compile-and-run daemon;
//   - internal/experiments — runners that regenerate every evaluation
//     table and figure.
//
// Quick start:
//
//	c := overlap.NewComputation("layer")
//	act := c.Parameter(0, "act", []int{128, 512})
//	w := c.Parameter(1, "w", []int{128, 1024})
//	full := c.AllGather(w, 0, overlap.NewRing(4).AxisGroups(0))
//	c.Einsum("bf,fh->bh", act, full)
//
//	opts := overlap.DefaultOptions(overlap.TPUv4())
//	report, err := overlap.Apply(c, opts) // decompose + schedule
package overlap

import (
	"context"
	"io"
	"log/slog"
	"net/http"

	"overlap/internal/autotune"
	"overlap/internal/core"
	"overlap/internal/experiments"
	"overlap/internal/grad"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/serve"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/topology"
	"overlap/internal/train"
)

// Re-exported core types. The aliases keep one set of definitions while
// giving users a single import.
type (
	// Computation is an SPMD program: a scheduled dataflow graph.
	Computation = hlo.Computation
	// Instruction is one node of a Computation.
	Instruction = hlo.Instruction
	// Options configures the overlap pipeline (§5).
	Options = core.Options
	// Report summarizes what the pipeline did.
	Report = core.Report
	// Decision is the §5.5 cost-model verdict for one site.
	Decision = core.Decision
	// MachineSpec describes the simulated accelerator.
	MachineSpec = machine.Spec
	// Mesh is a logical device mesh (ring / torus).
	Mesh = topology.Mesh
	// Breakdown is the simulated step-time decomposition.
	Breakdown = sim.Breakdown
	// ModelConfig is one evaluated workload (Tables 1-2).
	ModelConfig = models.Config
	// Tensor is a dense float64 tensor (used by the interpreter).
	Tensor = tensor.Tensor
	// SchedulerKind selects the §5.2 scheduling approach.
	SchedulerKind = core.SchedulerKind
	// MemoryStats reports a schedule's live-byte profile.
	MemoryStats = hlo.MemoryStats
	// RunOptions configures the concurrent goroutine runtime.
	RunOptions = runtime.Options
	// RunResult is a concurrent execution's values and measured timings.
	// The caller owns its output tensors until RunResult.Release hands
	// their buffers back for a later run to reuse.
	RunResult = runtime.Result
	// RunError is the structured failure of an aborted runtime
	// execution: device, instruction, phase, elapsed wall-clock, and —
	// under fault injection — the fault that caused it.
	RunError = runtime.RunError
	// FaultPlan is a deterministic, seeded set of faults to inject into
	// a runtime execution (see RunOptions.Faults).
	FaultPlan = runtime.FaultPlan
	// Fault is one injected failure in a FaultPlan.
	Fault = runtime.Fault
	// TransportKind selects the runtime fabric transfers move over:
	// TransportChan (in-process channels) or TransportProc (per-device
	// worker processes over Unix sockets). See RunOptions.Transport.
	TransportKind = runtime.TransportKind
	// Span is one timed interval of an execution's span stream,
	// simulated (sim.SimulateTrace) or measured (RunResult.Trace):
	// device, track, category, instruction name, seconds from step
	// start.
	Span = obs.Span
	// AutotuneOptions configures the profile-guided variant search.
	AutotuneOptions = autotune.Options
	// AutotuneResult is what one Autotune call decided and measured.
	AutotuneResult = autotune.Result
	// Calibration rescales a MachineSpec to track measured runtimes.
	Calibration = machine.Calibration
	// MetricsRegistry is the telemetry registry all executors record
	// into (counters, gauges, histograms; Prometheus/JSON exporters).
	MetricsRegistry = obs.Registry
	// AttributionReport is the per-collective overlap breakdown the
	// attribution analyzer produces from a span stream.
	AttributionReport = obs.AttributionReport
	// CollectiveAttribution is one collective's hidden/exposed split.
	CollectiveAttribution = obs.Attribution
	// RunTrace is the run-scoped trace artifact: one execution's
	// identity, serve-path stages, executor spans (wire spans stamped
	// with their attribution verdict), and attribution report —
	// exportable as stable JSON and as a Chrome trace.
	RunTrace = obs.RunTrace
	// RunSpan is one executor span of a RunTrace.
	RunSpan = obs.RunSpan
	// RunStage is one coarse serve-path interval of a RunTrace.
	RunStage = obs.RunStage
	// RunTraceError is a failed run's attribution inside a RunTrace.
	RunTraceError = obs.RunTraceError
	// Plan is the immutable compiled artifact the serving path executes:
	// the transformed scheduled program plus the knobs and calibration
	// that produced it, keyed by the autotune fingerprint.
	Plan = autotune.Plan
	// ServerConfig configures the overlap-as-a-service daemon.
	ServerConfig = serve.Config
	// Server is the long-running compile/tune/run daemon (overlap serve).
	Server = serve.Server
	// TrainConfig describes one training-step program (devices, layers,
	// dimensions, partitioning strategy).
	TrainConfig = train.Config
	// TrainStrategy selects the training partitioning (Megatron / DDP).
	TrainStrategy = train.Strategy
	// TrainOptions configures a multi-step training run.
	TrainOptions = train.Options
	// TrainResult is a completed training run: per-step losses, bitwise
	// gradient digests, and the final step's overlap attribution.
	TrainResult = train.Result
	// TrainProgram is a built fwd+bwd+update computation plus the
	// metadata needed to feed and read it.
	TrainProgram = train.Program
)

// Scheduler kinds (§5.2).
const (
	SchedulerBottomUp = core.SchedulerBottomUp
	SchedulerTopDown  = core.SchedulerTopDown
	SchedulerNone     = core.SchedulerNone
)

// Training partitioning strategies (§2.2's two decomposition sources).
const (
	TrainMegatron = train.StrategyMegatron
	TrainDDP      = train.StrategyDDP
)

// NewComputation returns an empty SPMD computation.
func NewComputation(name string) *Computation { return hlo.NewComputation(name) }

// NewRing returns a 1D device mesh of n chips.
func NewRing(n int) *Mesh { return topology.NewRing(n) }

// NewTorus2D returns an m-by-n 2D device mesh.
func NewTorus2D(m, n int) *Mesh { return topology.NewTorus2D(m, n) }

// TPUv4 returns the TPU-v4-like machine specification the evaluation
// uses.
func TPUv4() MachineSpec { return machine.TPUv4() }

// DefaultOptions returns the paper's deployed configuration: decompose
// + bottom-up schedule + unrolling + bidirectional transfer + fusion,
// gated by the cost model.
func DefaultOptions(spec MachineSpec) Options { return core.DefaultOptions(spec) }

// Apply runs the overlap pipeline on the computation in place and
// returns what it did.
func Apply(c *Computation, opts Options) (Report, error) { return core.Apply(c, opts) }

// Simulate runs the computation through the timing model on numDevices
// devices.
func Simulate(c *Computation, numDevices int, spec MachineSpec) (Breakdown, error) {
	return sim.Simulate(c, numDevices, spec)
}

// Interpret executes the computation functionally and returns the root
// value on each device; args[i] holds parameter i's per-device values
// (or a single replicated tensor).
func Interpret(c *Computation, numDevices int, args [][]*Tensor) ([]*Tensor, error) {
	return sim.Interpret(c, numDevices, args)
}

// Run executes the computation concurrently: one goroutine per device,
// channel-backed links, genuinely asynchronous CollectivePermutes. The
// result carries per-device values bit-identical to Interpret's plus a
// breakdown and optional Chrome trace measured from real timestamps.
func Run(c *Computation, numDevices int, args [][]*Tensor, opts RunOptions) (*RunResult, error) {
	return runtime.Run(c, numDevices, args, opts)
}

// RunContext is Run with a deadline: when ctx expires or is cancelled
// the execution aborts cleanly — every blocked device, link, and
// rendezvous goroutine joins — and the error is a *RunError attributing
// the stall to a device, instruction, and phase instead of hanging
// forever. Pair it with RunOptions.Faults to bound injected link stalls.
func RunContext(ctx context.Context, c *Computation, numDevices int, args [][]*Tensor, opts RunOptions) (*RunResult, error) {
	return runtime.RunContext(ctx, c, numDevices, args, opts)
}

// CheckRun re-executes c on the lockstep interpreter with the arguments
// res was run on and compares every output of res bitwise: the check
// behind every -check.
func CheckRun(c *Computation, numDevices int, args [][]*Tensor, res *RunResult) error {
	return runtime.CheckInterpreter(c, numDevices, args, res)
}

// ParseFaults parses a comma-separated fault-injection spec (e.g.
// "drop:link:0-1,crash:dev:2:40") into a FaultPlan for
// RunOptions.Faults. An empty spec returns a nil plan.
func ParseFaults(spec string) (*FaultPlan, error) { return runtime.ParseFaults(spec) }

// Transport kinds for RunOptions.Transport.
const (
	// TransportChan keeps every device in-process on buffered channels
	// (the default).
	TransportChan = runtime.TransportChan
	// TransportProc spawns one OS worker process per communicating
	// device and moves tensors as length-prefixed frames over Unix
	// sockets. Results stay bit-identical to TransportChan.
	TransportProc = runtime.TransportProc
)

// ParseTransport maps a CLI/API string ("", "chan", "proc") onto a
// TransportKind for RunOptions.Transport.
func ParseTransport(s string) (TransportKind, error) { return runtime.ParseTransport(s) }

// MaybeTransportWorker turns the current process into a process-
// transport worker when the transport's environment variable is set,
// and never returns in that case. Any main that can execute a
// TransportProc run must call it first thing, because the transport
// spawns workers by re-executing the current binary. It returns
// immediately (and costs nothing) in ordinary processes.
func MaybeTransportWorker() { runtime.MaybeWorker() }

// Autotune searches the pipeline's variant space (scheduler, unrolling,
// bidirectional transfer, rolled loops, fusion heuristics, gather
// rematerialization) for the configuration that executes the
// computation fastest: candidates are ranked by the timing simulator,
// the best few are run for real on the goroutine runtime (cross-checked
// against the interpreter), and the winner is picked by its executed
// step. The result carries the decision's one record, result.Plan
// — the winning program as it was executed — and the plan is stored
// under its fingerprint in a directory of plan files, so re-tuning an
// unchanged program returns the stored plan without compiling or
// executing anything. c is not modified; result.ApplyBest(c) applies
// the winning knobs to it.
func Autotune(c *Computation, numDevices int, args [][]*Tensor, opts AutotuneOptions) (*AutotuneResult, error) {
	return autotune.Tune(c, numDevices, args, opts)
}

// CompilePlan is Autotune returning only the Plan: the immutable,
// serializable artifact the daemon caches, the plan store keeps on
// disk, the CLIs round-trip via -plan-out / -plan-in, and
// Plan.Computation re-executes with zero compilation.
func CompilePlan(c *Computation, numDevices int, args [][]*Tensor, opts AutotuneOptions) (*Plan, error) {
	return autotune.Compile(c, numDevices, args, opts)
}

// DecodePlan parses a serialized Plan, rejecting version mismatches and
// artifacts whose embedded program does not parse and verify, and
// returns with it the program it parsed to verify it, ready to run.
func DecodePlan(data []byte) (*Plan, *Computation, error) { return autotune.DecodePlanProgram(data) }

// PlanKey returns the fingerprint a computation compiles and caches
// under: its body (the program's text without its name, so programs
// that differ only in name share one plan), machine spec, device count
// and the host's parallelism (GOMAXPROCS, the einsum kernels' worker
// count) — every input that moves measured runtimes.
func PlanKey(c *Computation, spec MachineSpec, numDevices int) string {
	return autotune.Key(c, spec, numDevices)
}

// NewServer builds the overlap-as-a-service daemon: an HTTP/JSON server
// whose hot path is plan-cache lookup + runtime execution. A cache miss
// joins the one compile in flight for its fingerprint (identical
// fingerprints share one compile), and admission control bounds
// concurrent runs over the shared kernel pool. Start it with
// Server.Start and stop it with Server.Shutdown.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// Miniature shrinks a Table 1/2 model onto a 1×devices ring small
// enough to execute with real tensors, preserving its architecture and
// collective structure; dim is the miniature per-head dimension.
func Miniature(cfg ModelConfig, devices, dim int) (ModelConfig, error) {
	return models.Miniature(cfg, devices, dim)
}

// NewRunID mints a fresh run identity ("r-" + 16 hex chars) — the key a
// run's trace, structured logs, metrics, and failure correlate under.
func NewRunID() string { return obs.NewRunID() }

// NewRunTrace assembles the run-scoped trace artifact from a measured
// (or simulated) span stream: the attribution analyzer runs once, every
// wire span is stamped with its verdict (hidden / partially-hidden /
// exposed) and the compute that hid it, and the full report is
// embedded. Scenario is "run" for layer steps, "train" for training
// steps. The artifact is the one renderer input: EncodeJSON,
// ChromeTrace (Perfetto) and Timeline (ASCII) all read it.
func NewRunTrace(id, scenario string, spans []Span) *RunTrace {
	return obs.NewRunTrace(id, scenario, spans)
}

// DecodeRunTrace parses a serialized RunTrace artifact (a CLI
// -trace-out file or a daemon /v1/runs/{id} body), rejecting version
// mismatches.
func DecodeRunTrace(data []byte) (*RunTrace, error) { return obs.DecodeRunTrace(data) }

// Log returns the process-wide structured logger: JSON records, keyed
// by "run_id" wherever a run is involved. Silent until SetLogOutput
// installs a sink.
func Log() *slog.Logger { return obs.Log() }

// SetLogOutput directs the process-wide structured logger at w (JSON
// lines); pass io.Discard to silence it again.
func SetLogOutput(w io.Writer) { obs.SetLogOutput(w) }

// Metrics returns the process-wide telemetry registry. The simulator,
// the concurrent runtime, and the autotuner all record into it; export
// it with WritePrometheus/JSON/WriteFile or serve it with ServeMetrics.
func Metrics() *MetricsRegistry { return obs.Default() }

// Attribute runs the overlap-attribution analyzer over a span stream
// (simulated or measured) and reports, per collective instruction, how
// much of its wire time was hidden under which partial einsum versus
// exposed — the per-op analogue of the paper's Figure 9 — plus the
// aggregate overlap-efficiency scalar.
func Attribute(spans []Span) AttributionReport { return obs.Attribute(spans) }

// ServeMetrics exposes the process-wide registry at http://addr/metrics
// in the Prometheus text format and returns the server (for Shutdown)
// and the resolved listen address.
func ServeMetrics(addr string) (*http.Server, string, error) { return obs.Serve(addr, obs.Default()) }

// Train builds cfg's fwd+bwd+SGD training-step program, optionally
// applies the overlap pipeline (TrainOptions.Pipeline), and executes
// the requested number of steps on the goroutine runtime, feeding each
// step's updated weights into the next.
func Train(ctx context.Context, cfg TrainConfig, opts TrainOptions) (*TrainResult, error) {
	return train.Run(ctx, cfg, opts)
}

// BuildTrainStep constructs cfg's training-step program without running
// it — the entry point for tuning, compiling, or serving the program.
func BuildTrainStep(cfg TrainConfig) (*TrainProgram, error) { return train.Build(cfg) }

// ParseTrainStrategy maps a CLI/JSON name ("megatron", "ddp") to a
// TrainStrategy.
func ParseTrainStrategy(name string) (TrainStrategy, error) { return train.ParseStrategy(name) }

// Gradients appends the backward pass of root (seeded with seed) to the
// computation and returns the gradient instruction for every wrt entry.
// Forward AllGathers become backward ReduceScatters (and vice versa),
// so the overlap pipeline applies to the result.
func Gradients(c *Computation, root, seed *Instruction, wrt []*Instruction) (map[*Instruction]*Instruction, error) {
	return grad.Append(c, root, seed, wrt)
}

// PeakMemory estimates the peak live bytes of the computation under its
// current schedule.
func PeakMemory(c *Computation) MemoryStats { return hlo.PeakMemory(c) }

// ParseHLO reads a computation back from its Format text and checks it
// the way every front door does: structure and shapes, then that it
// fits a numDevices ring. What it returns, Run, Interpret and Simulate
// accept.
func ParseHLO(text string, numDevices int) (*Computation, error) {
	return hlo.ParseProgram(text, numDevices)
}

// Table1Models returns the six production workloads of Table 1.
func Table1Models() []ModelConfig { return models.Table1() }

// Table2Models returns the weak-scaled GPT family of Table 2.
func Table2Models() []ModelConfig { return models.Table2() }

// BuildLayerStep builds the partitioned per-layer training-step graph
// of a Table 1/2 model.
func BuildLayerStep(cfg ModelConfig) (*Computation, error) {
	return models.BuildLayerStep(cfg)
}

// ExperimentIDs lists the experiments RunExperiment accepts, in
// presentation order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentResult is one experiment's report plus its numeric series.
type ExperimentResult = experiments.Structured

// RunExperiment regenerates one of the paper's tables or figures and
// returns its textual report.
func RunExperiment(id string, spec MachineSpec) (string, error) {
	s, err := RunExperimentStructured(id, spec)
	return s.Text, err
}

// RunExperimentStructured regenerates one experiment and returns both
// its textual report and its machine-readable series, for tracking
// results across revisions.
func RunExperimentStructured(id string, spec MachineSpec) (ExperimentResult, error) {
	return experiments.RunStructured(id, spec)
}
