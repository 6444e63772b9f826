package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"time"

	"overlap/internal/hlo"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// RunResponse is the answer to /v1/run.
type RunResponse struct {
	// RunID is this execution's identity: the key its flight-recorder
	// trace (GET /v1/runs/{id}), structured log lines, and runtime
	// telemetry all correlate under.
	RunID       string `json:"run_id"`
	Fingerprint string `json:"fingerprint"`
	// Plan is where the plan came from: hit, miss, or coalesced.
	Plan     string `json:"plan"`
	BestName string `json:"best_name"`
	Devices  int    `json:"devices"`
	// BatchSize is always 1: the daemon batches nothing. It survives
	// only because the frozen bench/ reads it; the next benchmark
	// revision drops it.
	BatchSize int `json:"batch_size"`

	BreakdownMS       BreakdownMS `json:"breakdown_ms"`
	OverlapEfficiency float64     `json:"overlap_efficiency"`
	// Digest is sha256 over every device's root tensor bytes — callers
	// verify bit-identity across replicas and against the interpreter
	// without shipping tensors.
	Digest   string   `json:"digest"`
	Checked  bool     `json:"checked,omitempty"`
	TimingMS TimingMS `json:"timing_ms"`
}

// BreakdownMS is the measured step decomposition in milliseconds.
type BreakdownMS struct {
	Step    float64 `json:"step"`
	Compute float64 `json:"compute"`
	Wire    float64 `json:"wire"`
	Exposed float64 `json:"exposed"`
}

// TimingMS decomposes where the request's latency went, in
// milliseconds: plan lookup (and the compile it waited on), admission
// wait, run.
type TimingMS struct {
	// Queue is always 0: nothing queues a request ahead of its plan
	// lookup. It survives only because the frozen bench/ reads it; the
	// next benchmark revision drops it.
	Queue     float64 `json:"queue"`
	Plan      float64 `json:"plan"`
	Admission float64 `json:"admission"`
	Run       float64 `json:"run"`
	Total     float64 `json:"total"`
}

// errorBody is every non-200 response: a cause, and for runtime
// failures the full structured attribution.
type errorBody struct {
	Error       string            `json:"error"`
	RunError    *runtime.RunError `json:"run_error,omitempty"`
	Fingerprint string            `json:"fingerprint,omitempty"`
	// RunID correlates a failed run with its flight-recorder trace and
	// log lines (set on failures that reached execution).
	RunID string `json:"run_id,omitempty"`
}

// handleRun answers POST /v1/run for a request that got its plan: it
// executes the plan under an admission slot on the concurrent runtime
// and answers with the measured breakdown and overlap attribution.
//
// Every ending is answered from one place: the switch sets the status,
// the error and the recorded trace's error, then the request is
// recorded, logged and written once. An admission wait past the deadline
// ran nothing, so it is neither recorded nor logged; a run that failed
// outside the runtime's attribution is logged only.
func (s *Server) handleRun(w http.ResponseWriter, p planned) {
	runID := obs.NewRunID()
	run, admitErr := s.runAdmitted(p.ctx, p.req, p.out.plan, runID)
	// The digest below is the last reader of the outputs, the run and its
	// check the only readers of the arguments: both go back to the arena.
	defer run.release()
	// The admission slot is free again: the digest, the attribution, the
	// trace and the response below are this request's own time.
	timing := TimingMS{
		Plan:      p.out.wait.Seconds() * 1e3,
		Admission: run.admission.Seconds() * 1e3,
		Run:       run.dur.Seconds() * 1e3,
		Total:     time.Since(p.start).Seconds() * 1e3,
	}
	status, err, recorded := http.StatusOK, admitErr, admitErr == nil
	var fail obs.RunTraceError
	switch {
	case admitErr != nil:
		status = http.StatusServiceUnavailable
		svErrors.Inc()
	case run.runErr != nil:
		re := run.runErr
		status, err = http.StatusServiceUnavailable, re
		fail = obs.RunTraceError{Device: re.Device, Instruction: re.Instr, Phase: string(re.Phase), Fault: re.Fault}
		svRunErrors.Inc()
	case run.err != nil:
		status, err, recorded = http.StatusInternalServerError, run.err, false
		svErrors.Inc()
	case run.checkErr != nil:
		status, err = http.StatusInternalServerError, run.checkErr
		fail = obs.RunTraceError{Device: -1, Phase: "check"}
		svErrors.Inc()
	}
	if run.err != nil {
		svFailedRunSeconds.Observe(timing.Total / 1e3)
	}

	body := errorBody{RunError: run.runErr}
	var head *obs.RunTrace
	if recorded {
		var spans []obs.Span
		if run.res != nil {
			spans = run.res.Trace
		}
		head = s.newHeader(runID, p.req, p.key, p.out.plan.plan.Devices, p.start, timing, spans)
		if run.res != nil {
			head.StepMS = run.res.Breakdown.StepTime * 1e3
		}
		if err != nil {
			fail.Cause = err.Error()
			head.SetError(fail)
		}
		s.record(head, spans)
		body.Fingerprint, body.RunID = p.key, runID
	}
	level, logged := slog.LevelInfo, make([]any, 0, 16) // the longest line's 16: no append reallocates
	logged = append(logged, "run_id", runID, "fingerprint", p.key, "scenario", scenarioLabel(p.req.Scenario))
	var answer any
	if err == nil {
		b := run.res.Breakdown
		logged = append(logged, "status", "ok", "plan", p.out.source, "step_ms", head.StepMS,
			"total_ms", timing.Total, "overlap_efficiency", head.OverlapEfficiency)
		answer = RunResponse{
			RunID:       runID,
			Fingerprint: p.key,
			Plan:        p.out.source,
			BestName:    p.out.plan.plan.BestName,
			Devices:     p.out.plan.plan.Devices,
			BatchSize:   1,
			BreakdownMS: BreakdownMS{
				Step:    b.StepTime * 1e3,
				Compute: b.Compute * 1e3,
				Wire:    b.CollectiveWire * 1e3,
				Exposed: b.Exposed * 1e3,
			},
			OverlapEfficiency: head.OverlapEfficiency,
			Digest:            Digest(run.outputs),
			Checked:           p.req.Check,
			TimingMS:          timing,
		}
	} else {
		body.Error = err.Error()
		level, answer = slog.LevelError, body
		logged = append(logged, "status", "failed", "total_ms", timing.Total, "error", body.Error)
	}
	if admitErr == nil {
		obs.Log().Log(p.ctx, level, "serve.run", logged...)
	}
	s.writeJSON(w, status, answer)
}

// admittedRun is what one execution under an admission slot produced:
// how long it waited for the slot and ran, the arguments it drew, then
// either the run's error or its result with the flattened outputs and,
// when the request asked for the interpreter cross-check, its verdict.
type admittedRun struct {
	admission, dur time.Duration
	args           [][]*tensor.Tensor
	res            *runtime.Result
	outputs        []*tensor.Tensor
	err, checkErr  error
	runErr         *runtime.RunError // err's RunError, if it has one
}

// release hands the run's outputs and arguments back to the arena.
func (r *admittedRun) release() {
	if r.res != nil {
		r.res.Release()
	}
	runtime.ReleaseArgs(r.args)
}

// runAdmitted executes the plan's Executable for one request, injecting
// wire at the plan's clock, the one its candidates were measured at; a
// request cannot change it. Served runs share the kernel worker pool,
// and the admission semaphore bounds how many hold it at once: the slot
// is taken here and given back when the run and its Check are over —
// before the digest, the trace and the response write to a possibly
// slow client, none of which touch the pool. The error return is the
// admission wait outlasting the request's deadline; a failed run comes
// back in admittedRun.err.
func (s *Server) runAdmitted(ctx context.Context, req *Request, cp *cachedPlan, runID string) (admittedRun, error) {
	var run admittedRun
	admStart := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return run, fmt.Errorf("serve: admission wait exceeded deadline: %w", ctx.Err())
	}
	run.admission = time.Since(admStart)
	svAdmissionWait.Observe(run.admission.Seconds())
	svInflight.Add(1)
	defer func() { svInflight.Add(-1); <-s.slots }()

	devices := cp.plan.Devices
	// Holding a slot, a generator is always there to take.
	rng := <-s.rngs
	rng.Seed(req.Seed)
	run.args = argsFrom(cp.comp, rng, pooledRand)
	s.rngs <- rng
	runStart := time.Now()
	run.res, run.err = cp.exe.Run(ctx, run.args, runtime.Options{
		TimeScale: cp.plan.TimeScale, Trace: true, RunID: runID,
		Transport: s.cfg.Transport, Faults: req.faults,
	})
	run.dur = time.Since(runStart)
	svRunSeconds.Observe(run.dur.Seconds())
	if run.err != nil {
		var re *runtime.RunError
		errors.As(run.err, &re)
		run.runErr = re
		return run, nil
	}
	run.outputs = Outputs(cp.comp, run.res.All, devices)
	if req.Check {
		run.checkErr = s.check(cp.comp, devices, run.args, run.res)
	}
	return run, nil
}

// Args generates the replicated random per-parameter arguments the
// serving convention uses (one tensor per parameter, seeded), shared by
// the daemon, its clients, and the CLIs so a caller can reproduce a
// served run bit for bit.
func Args(c *hlo.Computation, seed int64) [][]*tensor.Tensor {
	return argsFrom(c, rand.New(rand.NewSource(seed)), tensor.Rand)
}

// argsFrom is Args over the given seeded generator and source of random
// tensors.
func argsFrom(c *hlo.Computation, rng *rand.Rand, draw func(rng *rand.Rand, shape ...int) *tensor.Tensor) [][]*tensor.Tensor {
	params := c.Parameters()
	args := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		args[i] = []*tensor.Tensor{draw(rng, p.Shape...)}
	}
	return args
}

// pooledRand is tensor.Rand — the same stream, the same bytes — into a
// free-list buffer, for the request that hands it back (ReleaseArgs).
func pooledRand(rng *rand.Rand, shape ...int) *tensor.Tensor {
	return tensor.RandInto(tensor.NewPooled(shape...), rng)
}

// Outputs flattens a computation's real per-device output tensors in
// deterministic order: the root's operands when the root is a tuple (a
// tuple value carries no payload of its own), else the root itself.
// Both runtime Result.All and sim.InterpretAll satisfy the map shape.
func Outputs(c *hlo.Computation, all map[*hlo.Instruction][]*tensor.Tensor, devices int) []*tensor.Tensor {
	roots := []*hlo.Instruction{c.Root()}
	if c.Root().Op == hlo.OpTuple {
		roots = c.Root().Operands
	}
	out := make([]*tensor.Tensor, 0, len(roots)*devices)
	for d := 0; d < devices; d++ {
		for _, in := range roots {
			out = append(out, all[in][d])
		}
	}
	return out
}

// Digest hashes every output tensor's bytes into one hex sha256 — the
// cheap bit-identity witness responses carry.
func Digest(values []*tensor.Tensor) string {
	h := sha256.New()
	tensor.HashBits(h, values...)
	return hex.EncodeToString(h.Sum(nil))
}
