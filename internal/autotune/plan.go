package autotune

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// PlanVersion pins the serialized Plan schema; bump it whenever a field
// changes meaning so stale artifacts are rejected instead of silently
// misread. The golden test in plan_test.go pins the JSON layout.
// Version 2: the kernel split-K factor lives in Program (splitk= on
// each einsum); a v1 plan with Knobs.KernelSplitK >= 2 has an unstamped
// program and would execute unsplit. Version 3: plans carry Residual,
// so a stored plan restores everything a warm Result reports. Version 4:
// plans carry TimeScale, the clock their candidates ran at, which every
// run of the plan injects.
const PlanVersion = 4

// errPlanVersion marks a plan written under another PlanVersion: a
// deliberate invalidation, which the store tells apart from rot.
var errPlanVersion = errors.New("recompile the plan")

// Plan is the one record of a tuning decision: the program stage 2
// executed and checked bitwise against the interpreter, as text, with
// the knobs that produced it, its predicted and measured step times, the
// calibration the tune fitted and the clock it ran at — everything needed
// to run the winner with zero further compilation. tune is its only
// producer. It is a pure function of its Fingerprint (program body,
// machine spec, device count, host parallelism), which is what makes it
// storable: the daemon's in-memory LRU holds it, the disk tier keeps one
// file of EncodeJSON bytes per body, and -plan-out/-plan-in move the
// same bytes by hand. Its Program carries the name of the program it was
// searched for; every other name of the body runs it as it is.
type Plan struct {
	// Version is PlanVersion at encode time; Decode rejects mismatches.
	Version int `json:"version"`
	// Fingerprint is the key the plan was compiled and is stored under
	// (see Key).
	Fingerprint string `json:"fingerprint"`
	// Devices is the ring size the program was compiled for.
	Devices int `json:"devices"`
	// SpecName names the machine spec (the spec itself is part of the
	// fingerprint, not the artifact).
	SpecName string `json:"spec_name"`
	// BestName is the winning candidate's label; Baseline marks the
	// untransformed blocking program.
	BestName string `json:"best_name"`
	Baseline bool   `json:"baseline,omitempty"`
	// Knobs is the winning configuration (meaningless when Baseline).
	Knobs core.Knobs `json:"knobs"`
	// Program is the transformed computation in hlo.Format text — the
	// schedule-bearing source of truth the runtime executes.
	Program string `json:"program"`
	// PredictedSec and MeasuredSec are the winner's simulated and
	// measured step times from compile time.
	PredictedSec float64 `json:"predicted_sec"`
	MeasuredSec  float64 `json:"measured_sec"`
	// Calibration is the fitted machine rescaling (identity when the
	// tune did not calibrate) and Residual the fit's RMS relative
	// step-time error (-1 when there was no fit).
	Calibration machine.Calibration `json:"calibration"`
	Residual    float64             `json:"residual"`
	// TimeScale is the wire-delay scale stage 2 ran the candidates at
	// (runtime.Options.TimeScale; 0 is no wire): the input program's
	// clock unless the tune overrode it. The compute:wire ratio decides
	// whether decomposition wins, so every run of the plan injects it.
	TimeScale float64 `json:"time_scale"`
	// Created is the compile timestamp (RFC 3339, UTC); empty in golden
	// fixtures.
	Created string `json:"created,omitempty"`
}

// Compile tunes c — or answers from the plan store when it holds c's
// body — and returns the Plan. c is not modified.
func Compile(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Plan, error) {
	res, _, _, err := tune("", c, numDevices, args, opts)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// CompileKeyed is Compile for a caller that already computed the
// program's plan key — key must be Key(c, opts.Spec, numDevices), or
// empty to have it computed — and that will run the plan: with it comes
// the plan's program as a graph and that graph's Executable. For a
// searched body they are stage 2's winner, the pair that was executed
// and checked; for a plan from the disk tier, the program its decode
// parsed, lowered here once. Either way the caller runs the plan with no
// further parse or lowering.
func CompileKeyed(key string, c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Plan, *hlo.Computation, *runtime.Executable, error) {
	res, prog, exe, err := tune(key, c, numDevices, args, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if exe == nil {
		if exe, err = runtime.Compile(prog, res.Plan.Devices, opts.Spec); err != nil {
			return nil, nil, nil, fmt.Errorf("autotune: compiling stored plan %s: %w", res.Plan.BestName, err)
		}
	}
	return res.Plan, prog, exe, nil
}

// newPlan freezes a finished search: w is stage 2's winner and prog its
// program as stage 2 materialised and executed it; cal and residual are
// calibrate's fit (identity and -1 without one), scale the wire scale
// stage 2 ran at.
func newPlan(key string, numDevices int, spec machine.Spec, w *Candidate, prog *hlo.Computation, cal machine.Calibration, residual, scale float64) *Plan {
	return &Plan{
		Version:      PlanVersion,
		Fingerprint:  key,
		Devices:      numDevices,
		SpecName:     spec.Name,
		BestName:     w.Name,
		Baseline:     w.Baseline,
		Knobs:        w.Opts.Knobs,
		Program:      prog.Format(),
		PredictedSec: w.Predicted.StepTime,
		MeasuredSec:  w.Measured.StepTime,
		Calibration:  cal,
		Residual:     residual,
		TimeScale:    scale,
		Created:      time.Now().UTC().Format(time.RFC3339),
	}
}

// Computation parses the plan's transformed program back into an
// executable computation, verified for the plan's ring
// (hlo.ParseProgram): a plan is text that may have come from a file.
// Each call returns a fresh graph, so callers that share a Plan across
// goroutines can also choose per-caller isolation; the parse is
// deterministic (Format∘Parse is the identity on Format output, pinned
// by the hlo round-trip tests).
func (p *Plan) Computation() (*hlo.Computation, error) {
	c, err := hlo.ParseProgram(p.Program, p.Devices)
	if err != nil {
		return nil, fmt.Errorf("autotune: plan program is malformed: %w", err)
	}
	return c, nil
}

// EncodeJSON serializes the plan with stable field order and a trailing
// newline, suitable for -plan-out files and HTTP responses.
func (p *Plan) EncodeJSON() ([]byte, error) {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodePlan parses a serialized Plan, rejecting version mismatches and
// artifacts whose embedded program does not parse and verify on the
// plan's own device count — a truncated or hand-edited plan must fail
// loudly here, not misexecute later.
func DecodePlan(data []byte) (*Plan, error) {
	p, _, err := DecodePlanProgram(data)
	return p, err
}

// DecodePlanProgram is DecodePlan that also returns the program it
// parsed to verify the plan, for a caller that runs it.
func DecodePlanProgram(data []byte) (*Plan, *hlo.Computation, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, nil, fmt.Errorf("autotune: plan does not parse: %w", err)
	}
	if p.Version != PlanVersion {
		return nil, nil, fmt.Errorf("autotune: plan version %d, want %d (%w)", p.Version, PlanVersion, errPlanVersion)
	}
	prog, err := p.Computation()
	if err != nil {
		return nil, nil, err
	}
	return &p, prog, nil
}
