// Package cli is the one mapping from command-line flags to run
// configuration that every overlap subcommand shares. A flag that more
// than one subcommand accepts is defined here exactly once — name, usage
// text, and the Flags field it binds — and a command registers the
// subset it honours; the methods below turn the parsed values into the
// program, arguments, context and runtime options a run needs.
package cli

import (
	"context"
	"flag"
	"slices"
	"time"

	"overlap"
	"overlap/internal/models"
	"overlap/internal/runtime"
	"overlap/internal/serve"
)

// Flags holds the value of every shared flag. A flag's default is
// whatever its field holds when Register binds it, so a command states
// its own defaults by setting fields on Defaults() first.
type Flags struct {
	// Program selection.
	Model   string
	Devices int
	Dim     int

	// Machine-spec overrides.
	LinkGBs    float64
	PeakTFLOPs float64

	// Execution.
	Mode         string
	Transport    string
	KernelSplitK int
	Fault        string
	FaultSeed    int64
	Deadline     time.Duration
	Check        bool

	// Tuning.
	TopK    int
	Cache   string
	NoCache bool

	// Outputs.
	Attrib     bool
	Trace      string
	TraceOut   string
	MetricsOut string
	Serve      string
}

// Defaults returns the values most commands start from.
func Defaults() *Flags {
	return &Flags{Model: "GPT_32B", Devices: 4, Dim: 8, Mode: "all", Transport: "chan"}
}

// flagDef is one shared flag: its name, usage text, and the Flags field
// (a pointer to it) the flag binds.
type flagDef struct {
	name, usage string
	field       func(*Flags) any
}

// shared is the single definition of every shared flag.
var shared = []flagDef{
	{"model", "model name from Table 1 or Table 2", func(f *Flags) any { return &f.Model }},
	{"devices", "ring size (devices)", func(f *Flags) any { return &f.Devices }},
	{"dim", "miniature per-head dimension (scales every tensor)", func(f *Flags) any { return &f.Dim }},

	{"link-gbs", "override per-direction link bandwidth (GB/s, 4-byte-element equivalent)", func(f *Flags) any { return &f.LinkGBs }},
	{"peak-tflops", "override per-chip peak TFLOP/s", func(f *Flags) any { return &f.PeakTFLOPs }},

	{"mode", "baseline, rolled, overlap, or all", func(f *Flags) any { return &f.Mode }},
	{"transport", "fabric transport: chan (in-process channels) or proc (one worker process per device over Unix sockets)", func(f *Flags) any { return &f.Transport }},
	{"kernel-splitk", "split-K factor the rolled and overlap pipelines stamp on every einsum (0 = off); factors >= 2 reassociate the contraction deterministically", func(f *Flags) any { return &f.KernelSplitK }},
	{"fault", "inject faults, comma-separated: crash:dev:D[:K], drop:link:S-D[:K], dup:link:S-D[:K], delay:link:S-D:DUR[:JITTER]", func(f *Flags) any { return &f.Fault }},
	{"fault-seed", "seed for fault-injection jitter (deterministic per seed)", func(f *Flags) any { return &f.FaultSeed }},
	{"deadline", "abort a run that exceeds this wall-clock with a structured error (0 = no deadline)", func(f *Flags) any { return &f.Deadline }},
	{"check", "cross-check runtime outputs bitwise against the lockstep interpreter", func(f *Flags) any { return &f.Check }},

	{"topk", "candidates executed for real per tune, after simulator ranking", func(f *Flags) any { return &f.TopK }},
	{"cache", "plan store directory (default: <user cache dir>/overlap/plans)", func(f *Flags) any { return &f.Cache }},
	{"no-cache", "skip the on-disk plan store", func(f *Flags) any { return &f.NoCache }},

	{"attrib", "print the per-collective overlap attribution", func(f *Flags) any { return &f.Attrib }},
	{"trace", "write the run's Chrome trace (Perfetto, chrome://tracing) to this file", func(f *Flags) any { return &f.Trace }},
	{"trace-out", "write the overlap mode's run trace artifact (RunTrace JSON: spans with attribution verdicts, readable by overlap trace -trace-in) to this file", func(f *Flags) any { return &f.TraceOut }},
	{"metrics-out", "export telemetry to this file (Prometheus text, or JSON with a .json suffix)", func(f *Flags) any { return &f.MetricsOut }},
	{"serve", "serve a live /metrics endpoint at this address and stay up afterwards", func(f *Flags) any { return &f.Serve }},
}

// Names lists the shared flags in definition order.
func Names() []string {
	names := make([]string, len(shared))
	for i, d := range shared {
		names[i] = d.name
	}
	return names
}

// Register binds the named shared flags to f on fs. Naming a flag that
// is not in the shared set is a programming error and panics.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		i := slices.IndexFunc(shared, func(d flagDef) bool { return d.name == name })
		if i < 0 {
			panic("cli: no shared flag -" + name)
		}
		usage := shared[i].usage
		switch p := shared[i].field(f).(type) {
		case *string:
			fs.StringVar(p, name, *p, usage)
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *int64:
			fs.Int64Var(p, name, *p, usage)
		case *float64:
			fs.Float64Var(p, name, *p, usage)
		case *bool:
			fs.BoolVar(p, name, *p, usage)
		case *time.Duration:
			fs.DurationVar(p, name, *p, usage)
		}
	}
}

// Spec returns the TPU-v4-like machine with -link-gbs and -peak-tflops
// applied.
func (f *Flags) Spec() (overlap.MachineSpec, error) {
	spec := overlap.TPUv4()
	if f.LinkGBs != 0 {
		spec.LinkBandwidth = f.LinkGBs * 1e9
	}
	if f.PeakTFLOPs != 0 {
		spec.PeakFLOPS = f.PeakTFLOPs * 1e12
	}
	return spec, spec.Validate()
}

// Miniature resolves -model, -devices and -dim to the executable
// miniature of the named Table 1/2 model: the same architecture,
// partitioning strategy and collective structure on a 1×devices ring,
// small enough to run with real tensors.
func (f *Flags) Miniature() (overlap.ModelConfig, error) {
	cfg, err := models.ByName(f.Model)
	if err != nil {
		return cfg, err
	}
	return overlap.Miniature(cfg, f.Devices, f.Dim)
}

// Args supplies c's arguments by the serving convention — one
// replicated random tensor per parameter under the daemon's default
// seed — so a CLI run reproduces a served run bit for bit.
func Args(c *overlap.Computation) [][]*overlap.Tensor { return serve.Args(c, 42) }

// RunOptions maps the execution flags onto the runtime's options:
// -transport, and -fault seeded with -fault-seed. The wire scale is no
// flag's: a command sets the Clock it derived.
func (f *Flags) RunOptions() (overlap.RunOptions, error) {
	opts := overlap.RunOptions{Spec: overlap.TPUv4()}
	var err error
	if opts.Transport, err = overlap.ParseTransport(f.Transport); err != nil {
		return opts, err
	}
	if opts.Faults, err = overlap.ParseFaults(f.Fault); err != nil {
		return opts, err
	}
	if opts.Faults != nil {
		opts.Faults.Seed = f.FaultSeed
	}
	return opts, nil
}

// Clock derives the one wire scale every run of a command injects:
// runtime.Executable.Clock on c, the untransformed program, with Args'
// arguments, under -deadline.
func (f *Flags) Clock(c *overlap.Computation, devices int) (float64, error) {
	x, err := runtime.Compile(c, devices, overlap.TPUv4())
	if err != nil {
		return 0, err
	}
	ctx, cancel := f.Context()
	defer cancel()
	return x.Clock(ctx, Args(c))
}

// Context returns the context a run executes under: bounded by
// -deadline when one is set.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	if f.Deadline > 0 {
		return context.WithTimeout(context.Background(), f.Deadline)
	}
	return context.WithCancel(context.Background())
}
