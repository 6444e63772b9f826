package autotune

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// Decisions remembers what a search decided — its winner's Plan — per
// program body, so that a program an earlier one differs from only in
// the computation's name is not searched again. The model layers a
// server sees often are such twins: the model name is the one thing in
// a layer's text that tells them apart.
//
// A decision is keyed on what it reads, the name aside: the program's
// text without it (hlo.Computation.UnnamedDigest), the device count, the
// spec, the host's parallelism (as Key) and the options that shape
// stage 2. Nothing reads the name (TestRankingIgnoresTheName,
// TestWinnerIgnoresTheName), so a twin's search could differ from its
// body's only by the noise in measured compute. A twin's compile instead
// executes the decided program once under its own name, at the
// decision's clock on its own arguments, and checks it bitwise against
// the interpreter: every plan is still a program that was executed and
// checked. Only plans are kept, as text: no graphs, no candidates.
//
// The zero capacity holds nothing. A Decisions is safe for concurrent
// compiles; two twins compiling at once may both search.
type Decisions struct {
	mu    sync.Mutex
	cap   int
	keys  []decisionKey // least recently used first
	byKey map[decisionKey]Plan
}

// decisionKey identifies a decision: what a tune of its input reads,
// the computation's name aside.
type decisionKey struct {
	body             [sha256.Size]byte
	devices, workers int
	spec             string
	topK, repeats    int
	timeScale        float64
	calibrate        bool
}

// NewDecisions returns an empty memo that holds at most capacity
// decisions, dropping the least recently used one past it.
func NewDecisions(capacity int) *Decisions {
	return &Decisions{cap: max(capacity, 0), byKey: map[decisionKey]Plan{}}
}

// Compile is CompileKeyed with d's decisions: a program whose body d
// has decided is answered with that decision, executed once and checked
// under the program's own name, and a decision made here is kept in d.
// A nil d keeps none, so every compile searches.
//
// With the plan it returns the plan's program as a graph and that
// graph's Executable — the pair that was executed and checked: stage
// 2's winner for a searched body, the renamed program reuse ran for a
// twin. A plan from the disk tier comes with the program its decode
// parsed, lowered here once. Either way the caller runs the plan with
// no further parse or lowering.
func (d *Decisions) Compile(key string, c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Plan, *hlo.Computation, *runtime.Executable, error) {
	res, prog, exe, err := tune(key, c, numDevices, args, opts, d)
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

// Len is how many decisions d holds.
func (d *Decisions) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.keys)
}

// decisionKeyOf keys c's decision under opts, which carry their
// defaults.
func decisionKeyOf(c *hlo.Computation, numDevices int, opts Options) decisionKey {
	return decisionKey{
		body: c.UnnamedDigest(), devices: numDevices, workers: tensor.KernelWorkers(),
		spec: opts.Spec.Fingerprint(), topK: opts.TopK, repeats: opts.Repeats,
		timeScale: opts.TimeScale, calibrate: opts.Calibrate,
	}
}

// get returns the decision under k.
func (d *Decisions) get(k decisionKey) (Plan, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.byKey[k]
	if ok {
		d.touch(k)
	}
	return p, ok
}

// put keeps p under k.
func (d *Decisions) put(k decisionKey, p *Plan) {
	if d.cap == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.byKey[k]; !ok {
		d.keys = append(d.keys, k)
	}
	d.byKey[k] = *p
	d.touch(k)
	if len(d.keys) > d.cap {
		delete(d.byKey, d.keys[0])
		d.keys = slices.Delete(d.keys, 0, 1)
	}
}

// touch moves k, which d holds, to the most recently used end.
func (d *Decisions) touch(k decisionKey) {
	i := slices.Index(d.keys, k)
	d.keys = append(slices.Delete(d.keys, i, i+1), k)
}

// twinProgram is the decided program as c's: p's program, parsed for
// the ring, under c's name.
func twinProgram(p *Plan, c *hlo.Computation) (*hlo.Computation, error) {
	prog, err := p.Computation()
	if err != nil {
		return nil, err
	}
	prog.Name = c.Name
	return prog, nil
}

// reuse answers a tune of c, a twin of the body p decided, with p's
// decision under key: the decided program under c's name, executed once
// at p's clock on args and checked bitwise against the interpreter. It
// returns that program and its Executable with the plan.
func reuse(key string, c *hlo.Computation, args [][]*tensor.Tensor, opts Options, p *Plan) (*Plan, *hlo.Computation, *runtime.Executable, error) {
	prog, err := twinProgram(p, c)
	if err != nil {
		return nil, nil, nil, err
	}
	exe, err := runtime.Compile(prog, p.Devices, opts.Spec)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("autotune: executing %s: %w", p.BestName, err)
	}
	run, err := exe.Run(context.Background(), args, runtime.Options{
		TimeScale: p.TimeScale,
		RunID:     fmt.Sprintf("%s.%s.r0", opts.RunID, p.BestName),
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("autotune: executing %s: %w", p.BestName, err)
	}
	defer run.Release()
	if err := runtime.CheckInterpreter(prog, p.Devices, args, run); err != nil {
		return nil, nil, nil, fmt.Errorf("autotune: checking %s: %w", p.BestName, err)
	}
	w := &Candidate{
		Name: p.BestName, Baseline: p.Baseline, Opts: core.Options{Knobs: p.Knobs},
		Predicted: sim.Breakdown{StepTime: p.PredictedSec},
		Measured:  sim.Breakdown{StepTime: p.MeasuredSec},
	}
	return newPlan(key, p.Devices, opts.Spec, w, prog, p.Calibration, p.Residual, p.TimeScale), prog, exe, nil
}
