package train

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"log/slog"
	"math"
	"slices"
	"strconv"
	"strings"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// Options configures a multi-step training run.
type Options struct {
	// Pipeline, when non-nil, is applied to the built program before
	// execution; nil keeps the blocking baseline (no overlap).
	Pipeline *core.Options
	// Steps is the number of training steps (default 1). Updated
	// weights feed the next step, so the loss trajectory is a real
	// gradient descent.
	Steps int
	// LR is the learning rate; must be a power of two (see CheckLR).
	// Zero defaults to 1/16.
	LR float64
	// Seed drives the deterministic dyadic data generation.
	Seed int64
	// Spec prices the modeled wire; zero-value defaults to
	// machine.TPUv4().
	Spec machine.Spec
	// TimeScale scales the modeled wire seconds the timing pass prices
	// each step's transfers and collectives at, exactly as in
	// runtime.Options (0 is no wire); no goroutine waits on it. overlap
	// train sets the clock it measured on the untransformed step
	// (runtime.Executable.Clock), one value for every mode.
	TimeScale float64
	// Check cross-checks every step's outputs bitwise against
	// sim.Interpret on the same program and arguments.
	Check bool
	// Attribution records a trace on the final step and attaches the
	// per-collective overlap attribution to the result.
	Attribution bool
	// Faults injects deterministic faults into every step's execution.
	Faults *runtime.FaultPlan
	// RunID correlates the whole training run: step s executes under
	// "<RunID>.s<s>" (echoed in StepStat.RunID and any RunError), and
	// the final-step trace artifact carries RunID itself. Empty mints a
	// fresh obs.NewRunID.
	RunID string
}

// StepStat is one training step's outcome.
type StepStat struct {
	// Loss is the global squared-error loss, summed over devices.
	Loss float64 `json:"loss"`
	// GradDigest is a sha256 over every gradient output's bytes on
	// every device — the cross-config bitwise-identity witness.
	GradDigest string `json:"grad_digest"`
	// WeightDigest hashes the updated weights the same way.
	WeightDigest string `json:"weight_digest"`
	// StepSeconds is the executed step time: the runtime's latest final
	// device clock (measured compute, injected wire).
	StepSeconds float64 `json:"step_seconds"`
	// Checked marks a step verified bitwise against the interpreter.
	Checked bool `json:"checked"`
	// RunID is the step's execution identity ("<run>.s<step>").
	RunID string `json:"run_id,omitempty"`
}

// Result is a completed training run.
type Result struct {
	Config Config      `json:"config"`
	Knobs  *core.Knobs `json:"knobs,omitempty"`
	// Report is the pipeline's rewrite summary (zero when no pipeline
	// ran); Report.Buckets lists the gradient buckets formed.
	Report core.Report `json:"-"`
	Steps  []StepStat  `json:"steps"`
	// Attribution is the final step's per-collective overlap breakdown
	// when Options.Attribution was set.
	Attribution *obs.AttributionReport `json:"attribution,omitempty"`
	// BucketAttribution rolls Attribution up per gradient bucket (rows
	// keyed "gbktK"), non-bucket collectives keep their own rows.
	BucketAttribution []obs.Attribution `json:"bucket_attribution,omitempty"`
	// Modeled is the discrete-event attribution of the same transformed
	// program on the machine model (sim.SimulateTrace): deterministic
	// and scale-consistent where the measured Attribution depends on
	// real kernel timings, so it is the witness CI asserts on.
	Modeled *obs.AttributionReport `json:"modeled,omitempty"`
	// ModeledBuckets rolls Modeled up per gradient bucket.
	ModeledBuckets []obs.Attribution `json:"modeled_buckets,omitempty"`
	// Trace is the final step's run-scoped trace artifact when
	// Options.Attribution was set: the measured spans with per-wire-span
	// verdicts, under the run's base ID.
	Trace *obs.RunTrace `json:"trace,omitempty"`
}

// DivergedError reports a training run stopped at the first step whose
// loss was NaN or ±Inf: the learning rate is too large for the
// configuration, and every later step would only propagate the
// non-finite weights.
type DivergedError struct {
	Step int
	LR   float64
	Loss float64
}

func (e *DivergedError) Error() string {
	return fmt.Sprintf("train: step %d: loss %v is not finite at learning rate %g (lower -lr / Options.LR)", e.Step, e.Loss, e.LR)
}

// Run builds cfg's training-step program, optionally applies the
// overlap pipeline, and executes opts.Steps SGD steps on the goroutine
// runtime, feeding each step's updated weights into the next. Gradients
// and updated weights are digested per step; with opts.Check every root
// output is compared bitwise against the interpreter.
func Run(ctx context.Context, cfg Config, opts Options) (*Result, error) {
	prog, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg}
	if opts.Pipeline != nil {
		report, err := core.Apply(prog.Comp, *opts.Pipeline)
		if err != nil {
			return nil, err
		}
		res.Report = report
		k := opts.Pipeline.Knobs
		res.Knobs = &k
	}
	return Execute(ctx, prog, res, opts)
}

// Execute runs the training loop over an already-transformed program —
// the entry point for compiled-plan and serving paths, where the
// computation arrived via autotune rather than core.Apply. The res
// argument carries any pipeline report; pass &Result{Config: …} when
// starting fresh.
func Execute(ctx context.Context, prog *Program, res *Result, opts Options) (*Result, error) {
	cfg := prog.Config
	spec := opts.Spec
	if spec.Name == "" {
		spec = machine.TPUv4()
	}
	lr := opts.LR
	if lr == 0 {
		lr = 1.0 / 16
	}
	steps := opts.Steps
	if steps < 1 {
		steps = 1
	}
	feed, err := Args(prog, opts.Seed, lr)
	if err != nil {
		return nil, err
	}
	// The feed goes back to the arena however the call ends, so the next
	// Execute draws the same buffers. args starts as the feed and then
	// holds each step's updated weights, which are that step's result's
	// to release.
	defer runtime.ReleaseArgs(feed)
	args := slices.Clone(feed)

	trGradBucketBytes.Set(bucketBytes(opts.Pipeline))
	trGradBuckets.Set(float64(len(res.Report.Buckets)))

	runID := opts.RunID
	if runID == "" {
		runID = obs.NewRunID()
	}

	if opts.Attribution {
		_, spans, err := sim.SimulateTrace(prog.Comp, cfg.Devices, spec)
		if err != nil {
			return nil, fmt.Errorf("train: modeled attribution: %w", err)
		}
		res.Modeled = attributionOf(obs.NewRunTrace(runID, "train", spans))
		res.ModeledBuckets = res.Modeled.GroupBy(BucketKey)
	}

	n := cfg.Devices
	w := cfg.NumWeights()
	// The program is the same every step; only the weights move. Validate
	// and lower it once, and run the Executable per step.
	exe, err := runtime.Compile(prog.Comp, n, spec)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	// One hasher digests every step, and the step IDs are cut from one
	// buffer: a warm step allocates only what its StepStat keeps.
	dig := newDigester()
	idBuf := append(make([]byte, 0, len(runID)+8), runID...)
	idBuf = append(idBuf, ".s"...)
	res.Steps = slices.Grow(res.Steps, steps)
	// prev is the step before the current one: its updated weights are
	// the current step's arguments, so its buffers go back to the arena
	// only once the current step — and whatever reads its arguments — is
	// through.
	var prev *runtime.Result
	defer func() {
		if prev != nil {
			prev.Release()
		}
	}()
	for step := 0; step < steps; step++ {
		stepID := string(strconv.AppendInt(idBuf, int64(step), 10))
		ropts := runtime.Options{TimeScale: opts.TimeScale, Faults: opts.Faults, RunID: stepID}
		last := step == steps-1
		if opts.Attribution && last {
			ropts.Trace = true
		}
		rres, err := exe.Run(ctx, args, ropts)
		if err != nil {
			obs.Log().Error("train.step", "run_id", stepID, "step", step, "error", err.Error())
			return nil, fmt.Errorf("train: step %d: %w", step, err)
		}

		loss := 0.0
		for _, t := range rres.All[prog.RootLoss()] {
			loss += t.At()
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			rres.Release()
			err := &DivergedError{Step: step, LR: lr, Loss: loss}
			obs.Log().Error("train.step", "run_id", stepID, "step", step, "error", err.Error())
			return nil, err
		}
		stat := StepStat{
			Loss:         loss,
			GradDigest:   dig.of(rres.All, w, prog.RootGrad),
			WeightDigest: dig.of(rres.All, w, prog.RootWeight),
			StepSeconds:  rres.Breakdown.StepTime,
			RunID:        stepID,
		}

		if opts.Check {
			if err := runtime.CheckInterpreter(prog.Comp, n, args, rres); err != nil {
				rres.Release()
				return nil, fmt.Errorf("train: step %d: %w", step, err)
			}
			stat.Checked = true
			trChecks.Inc()
		}

		trSteps.Inc()
		trLoss.Set(loss)
		trStepSeconds.Observe(stat.StepSeconds)
		res.Steps = append(res.Steps, stat)
		if log := obs.Log(); log.Enabled(ctx, slog.LevelInfo) {
			log.Info("train.step", "run_id", stepID, "step", step,
				"loss", loss, "step_seconds", stat.StepSeconds, "checked", stat.Checked)
		}

		if opts.Attribution && last {
			trace := obs.NewRunTrace(runID, "train", rres.Trace)
			trace.Devices = n
			trace.StepMS = rres.Breakdown.StepTime * 1e3
			res.Trace = trace
			res.Attribution = attributionOf(trace)
			res.BucketAttribution = res.Attribution.GroupBy(BucketKey)
			trGradWireSeconds.Set(res.Attribution.TotalWire)
			trGradHiddenSeconds.Set(res.Attribution.TotalHidden)
		}

		// The updated weights become the next step's parameters; x, the
		// targets, the seed and the learning rate stay fixed.
		for i := 0; i < w; i++ {
			args[ParamWeight0+i] = rres.All[prog.RootWeight(i)]
		}
		if prev != nil {
			prev.Release()
		}
		prev = rres
	}
	return res, nil
}

// attributionOf returns the report a RunTrace was stamped from. The
// artifact omits it for a program with no collectives; callers of an
// attributed run still get a non-nil (empty) report.
func attributionOf(t *obs.RunTrace) *obs.AttributionReport {
	if t.Attribution == nil {
		return &obs.AttributionReport{}
	}
	return t.Attribution
}

// BucketKey maps a gradient-bucket instruction name ("gbkt3.…") to its
// bucket ("gbkt3") and leaves every other collective name untouched —
// the GroupBy key for per-bucket attribution.
func BucketKey(name string) string {
	if strings.HasPrefix(name, "gbkt") {
		if i := strings.IndexByte(name, '.'); i > 0 {
			return name[:i]
		}
	}
	return name
}

// digester hashes a step's outputs across devices into one hex sha256,
// float bits taken verbatim: equal digests mean bit-identical values.
// An Execute keeps one and resets it per digest.
type digester struct {
	h   hash.Hash
	sum []byte
}

func newDigester() *digester {
	return &digester{h: sha256.New(), sum: make([]byte, 0, sha256.Size)}
}

// of digests the tensors of root operands out(0) … out(w-1).
func (g *digester) of(all map[*hlo.Instruction][]*tensor.Tensor, w int, out func(int) *hlo.Instruction) string {
	g.h.Reset()
	for i := 0; i < w; i++ {
		tensor.HashBits(g.h, all[out(i)]...)
	}
	g.sum = g.h.Sum(g.sum[:0])
	var hexed [2 * sha256.Size]byte
	hex.Encode(hexed[:], g.sum)
	return string(hexed[:])
}

func bucketBytes(p *core.Options) float64 {
	if p == nil {
		return 0
	}
	return float64(p.GradBucketBytes)
}
