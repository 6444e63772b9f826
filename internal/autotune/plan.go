package autotune

import (
	"encoding/json"
	"fmt"
	"time"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/tensor"
)

// PlanVersion pins the serialized Plan schema; bump it whenever a field
// changes meaning so stale artifacts are rejected instead of silently
// misread. The golden test in plan_test.go pins the JSON layout.
// Version 2: the kernel split-K factor lives in Program (splitk= on
// each einsum); a v1 plan with Knobs.KernelSplitK >= 2 has an unstamped
// program and would execute unsplit.
const PlanVersion = 2

// Plan is the immutable compiled artifact the serving path executes: the
// fully transformed (partitioned, decomposed, scheduled) program text,
// the knob configuration that produced it, and the calibration the tune
// fitted — everything needed to run the program with zero further
// compilation. A Plan is a pure function of its Fingerprint (program
// shape, machine spec, device count, kernel workers, instrumentation
// toggle), which is exactly what makes it cacheable: the daemon's LRU,
// the on-disk decision cache, and the -plan-out/-plan-in CLI round-trip
// all carry this one artifact.
type Plan struct {
	// Version is PlanVersion at encode time; Decode rejects mismatches.
	Version int `json:"version"`
	// Fingerprint is the autotune cache key the plan was compiled under
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
	// tune did not calibrate).
	Calibration machine.Calibration `json:"calibration"`
	// Created is the compile timestamp (RFC 3339, UTC); empty in golden
	// fixtures.
	Created string `json:"created,omitempty"`
}

// Compile runs the full pipeline — tune (answering from the decision
// cache when warm), apply the winner to a clone, capture the schedule —
// and freezes the result into a Plan. c is not modified.
func Compile(c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Plan, error) {
	return CompileKeyed("", c, numDevices, args, opts)
}

// CompileKeyed is Compile for a caller that already computed the
// program's decision key — key must be Key(c, opts.Spec, numDevices),
// or empty to have it computed — so a request that looked its plan up
// under the key does not format and hash the program a second time to
// compile it.
func CompileKeyed(key string, c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Plan, error) {
	res, err := tune(key, c, numDevices, args, opts)
	if err != nil {
		return nil, err
	}
	return PlanFromResult(c, numDevices, res)
}

// PlanFromResult freezes an already-computed tuning decision into a
// Plan without re-searching: the winner is applied to a clone of c and
// the transformed schedule captured as text. This is the path the CLIs
// use after reporting a Tune, so -plan-out costs one Apply, not a
// second search.
func PlanFromResult(c *hlo.Computation, numDevices int, res *Result) (*Plan, error) {
	transformed := c.Clone()
	if _, err := res.ApplyBest(transformed); err != nil {
		return nil, fmt.Errorf("autotune: applying tuned options: %w", err)
	}
	return &Plan{
		Version:      PlanVersion,
		Fingerprint:  res.Fingerprint,
		Devices:      numDevices,
		SpecName:     res.CalibratedSpec.Name,
		BestName:     res.BestName,
		Baseline:     res.BestIsBaseline,
		Knobs:        res.Best.Knobs(),
		Program:      transformed.Format(),
		PredictedSec: res.PredictedWall,
		MeasuredSec:  res.MeasuredWall,
		Calibration:  res.Calibration,
		Created:      time.Now().UTC().Format(time.RFC3339),
	}, nil
}

// Computation parses the plan's transformed program back into an
// executable computation. Each call returns a fresh graph, so callers
// that share a Plan across goroutines can also choose per-caller
// isolation; the parse is deterministic (Format∘Parse is the identity
// on Format output, pinned by the hlo round-trip tests).
func (p *Plan) Computation() (*hlo.Computation, error) {
	c, err := hlo.Parse(p.Program)
	if err != nil {
		return nil, fmt.Errorf("autotune: plan program does not parse: %w", err)
	}
	return c, nil
}

// Options reconstitutes the plan's pipeline configuration against a
// live machine spec.
func (p *Plan) Options(spec machine.Spec) core.Options { return p.Knobs.Options(spec) }

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
// artifacts whose embedded program no longer parses — a truncated or
// hand-edited plan must fail loudly here, not misexecute later.
func DecodePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("autotune: plan does not parse: %w", err)
	}
	if p.Version != PlanVersion {
		return nil, fmt.Errorf("autotune: plan version %d, want %d (recompile the plan)", p.Version, PlanVersion)
	}
	if _, err := p.Computation(); err != nil {
		return nil, err
	}
	if p.Devices < 1 {
		return nil, fmt.Errorf("autotune: plan has no device count")
	}
	return &p, nil
}
