package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"overlap/internal/autotune"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/runtime"
	"overlap/internal/train"
)

// Request is one compile or run job. Either Model (a Table 1/2 name,
// miniaturized to Devices×Dim) or Program (hlo.Format text) names the
// computation.
type Request struct {
	Model   string `json:"model,omitempty"`
	Dim     int    `json:"dim,omitempty"`
	Program string `json:"program,omitempty"`
	Devices int    `json:"devices"`

	// Scenario selects the program family: "" (or "layer") builds the
	// forward layer step; "train" builds the fwd+bwd+SGD training step
	// via internal/train. Training programs compile, cache, and serve
	// through the same plan machinery as inference layers.
	Scenario string `json:"scenario,omitempty"`
	// Strategy partitions the training step ("megatron" or "ddp");
	// train scenario only.
	Strategy string `json:"strategy,omitempty"`
	// Layers is the training step's layer count (default 2); train
	// scenario only.
	Layers int `json:"layers,omitempty"`

	// Seed generates the run's replicated random arguments (default 42).
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMS bounds the run (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Check cross-checks the run bit-for-bit against the lockstep
	// interpreter before answering.
	Check bool `json:"check,omitempty"`

	// Fault and FaultSeed inject a deterministic FaultPlan
	// (ParseFaults grammar); rejected unless the server runs with
	// DebugFaults.
	Fault     string `json:"fault,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`

	// faults is Fault parsed and seeded by decodeRequest; nil injects
	// nothing (no spec, or one that is blank once trimmed).
	faults *runtime.FaultPlan
}

// What one request may ask of the daemon before any plan exists: the
// bytes of its body, the ring size (a run, the simulator and the span
// slab all size by it), a model's head dimension and training layer
// count (what building its graph costs; CI and the benchmark send at
// most 8 and 2), for an inline program — whose text the body bounds but
// whose loops it does not — the loop-body instructions one run of it
// executes (Σ trip count × body length; ring loops over 8 devices stay
// under a thousand), and for every program, built or inline, its
// modeled live bytes across the ring (hlo.PeakMemory per device ×
// devices). The caps on the numbers do not bound the bytes: a dim-8
// BigSSL_10B layer step is modeled at 0.36 MB on 4 devices, 5.5 MB on 8
// and 82 GB on 64, and a dim-8, 2-layer ddp training step at 0.44 MB on
// 4 and 1.8 GB on 64. The largest program the benchmark sends is the
// 0.44 MB one, and the corpus peaks under half a megabyte.
const (
	maxBodyBytes      = 1 << 20
	maxDevices        = 64
	maxDim            = 32
	maxLayers         = 16
	maxInlineLoopWork = 1 << 16
	maxProgramBytes   = 1 << 26
)

// decodeRequest parses and validates a POST body. A body it refuses
// comes back as the status to answer and the error to answer it with.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, int, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err)
	}
	// The body is one object: a second value or a stray byte after it is
	// refused, not ignored.
	if _, err := dec.Token(); err != io.EOF {
		return nil, http.StatusBadRequest, fmt.Errorf("serve: bad request body: data after the JSON object")
	}
	var err error
	switch {
	case req.Devices < 1 || req.Devices > maxDevices:
		err = fmt.Errorf("serve: request needs 1 <= devices <= %d, got %d", maxDevices, req.Devices)
	case req.Dim > maxDim || req.Layers > maxLayers:
		err = fmt.Errorf("serve: request needs dim <= %d and layers <= %d, got %d and %d", maxDim, maxLayers, req.Dim, req.Layers)
	case (req.Model == "") == (req.Program == ""):
		err = fmt.Errorf("serve: request needs exactly one of model or program")
	case req.Scenario != "" && req.Scenario != "layer" && req.Scenario != "train":
		err = fmt.Errorf("serve: unknown scenario %q (want layer or train)", req.Scenario)
	case req.Scenario == "train" && req.Program != "":
		err = fmt.Errorf("serve: the train scenario builds its program from a model; inline HLO is not accepted")
	case req.DeadlineMS > int64(math.MaxInt64/time.Millisecond):
		err = fmt.Errorf("serve: deadline_ms %d is longer than a duration can be", req.DeadlineMS)
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.Fault != "" && !s.cfg.DebugFaults {
		return nil, http.StatusForbidden, fmt.Errorf("serve: fault injection requires the daemon's debug-faults flag")
	}
	// Judged here, against the request's ring, before any plan is acquired
	// or admission slot taken: a malformed or out-of-range spec must not
	// cost a cold compile.
	if req.faults, err = runtime.ParseFaults(req.Fault); err == nil {
		err = req.faults.Validate(req.Devices)
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.faults != nil {
		req.faults.Seed = req.FaultSeed
	}
	if req.Seed == 0 {
		req.Seed = 42
	}
	if req.Dim == 0 {
		req.Dim = 8
	}
	return &req, http.StatusOK, nil
}

// runContext bounds a request by its deadline_ms, which decodeRequest
// has checked fits a time.Duration, or by the server's default.
func (s *Server) runContext(r *http.Request, req *Request) (context.Context, context.CancelFunc) {
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), deadline)
}

// program is a request's computation as the plan machinery needs it:
// named (key), and built only if somebody has to compile it.
type program struct {
	// key is the plan fingerprint, autotune.KeyOf(fingerprint, …).
	key string
	// fingerprint is the graph's autotune.ProgramFingerprint.
	fingerprint string
	// shape is the request's shape; zero (no model name) for an
	// inline-program request, which has none.
	shape requestShape
	// comp is the graph when resolve had to build it to name it; nil
	// for a known shape, whose graph is built only if its plan must be
	// compiled.
	comp *hlo.Computation
}

// resolve names the request's program: its plan-cache fingerprint, and
// the graph itself when naming it took building it.
//
// The fingerprint has two halves (autotune.Key). The program half is a
// digest of the graph's text, a pure function of the request's shape,
// and building a miniature's graph only to digest it was a twentieth of
// a warm request's allocations — so the plan cache remembers, beside
// each plan, the shapes that resolved to it and their program digest,
// and a known shape skips models.BuildLayerStep / train.Build and the
// digest altogether. The host half — the kernels' worker count,
// GOMAXPROCS — is never remembered: KeyOf reads it on every request, so
// plans measured under one parallelism are never served under another,
// exactly as if the graph had been rebuilt. Inline programs are parsed
// and digested every time.
func (s *Server) resolve(req *Request) (*program, error) {
	if req.Program != "" {
		c, err := hlo.ParseProgram(req.Program, req.Devices)
		if err == nil {
			err = boundLoopWork(c)
		}
		if err == nil {
			err = boundMemory(c, req.Devices)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: program is not accepted: %w", err)
		}
		fp := autotune.ProgramFingerprint(c)
		return &program{key: autotune.KeyOf(fp, machine.TPUv4(), req.Devices), fingerprint: fp, comp: c}, nil
	}
	prog := &program{shape: shapeOf(req)}
	fp, known := s.plans.fingerprintOf(prog.shape)
	if !known {
		// A known shape was bounded when it was first built.
		c, err := s.buildGraph(prog.shape)
		if err == nil {
			err = boundMemory(c, req.Devices)
		}
		if err != nil {
			return nil, err
		}
		prog.comp, fp = c, autotune.ProgramFingerprint(c)
	}
	prog.fingerprint = fp
	prog.key = autotune.KeyOf(fp, machine.TPUv4(), req.Devices)
	return prog, nil
}

// boundLoopWork refuses an inline program whose loops would execute more
// than maxInlineLoopWork body instructions: the body size bounds the
// text, and only a trip count makes a small text a long run. Programs
// built from a model name never come here; their loops trip once per
// device.
func boundLoopWork(c *hlo.Computation) error {
	work := 0
	for i := 0; i < c.NumInstructions(); i++ {
		in := c.At(i)
		if in.Op != hlo.OpLoop {
			continue
		}
		// Divided, not multiplied: a trip count is any int the text names.
		body := max(in.Body.NumInstructions(), 1)
		if in.TripCount > (maxInlineLoopWork-work)/body {
			return fmt.Errorf("serve: loop %s (trip count %d, %d body instructions) takes the program past %d loop-body instructions per run",
				in.Name, in.TripCount, body, maxInlineLoopWork)
		}
		work += in.TripCount * body
	}
	return nil
}

// boundMemory refuses a program whose modeled live bytes across the
// ring pass maxProgramBytes: the daemon allocates every parameter before
// the program's first run, and each run about its peak.
func boundMemory(c *hlo.Computation, devices int) error {
	perDevice := int64(maxProgramBytes / devices)
	if peak := hlo.PeakMemory(c).PeakBytes; peak > perDevice {
		return fmt.Errorf("serve: the program peaks at %d live bytes per device, past the %d a %d-device program may use",
			peak, perDevice, devices)
	}
	return nil
}

// requestShape is everything a model request says about the program it
// wants, normalised — the fields a scenario ignores zeroed, its defaults
// filled in — and the only input Server.buildGraph takes, so two
// requests of one shape build the same graph by construction.
// Inline-program requests have no shape; their text is their identity.
type requestShape struct {
	model    string
	dim      int
	devices  int
	train    bool
	strategy string
	layers   int
}

func shapeOf(req *Request) requestShape {
	shape := requestShape{model: req.Model, dim: req.Dim, devices: req.Devices}
	if req.Scenario == "train" {
		shape.train = true
		// The parser's canonical spelling, so its default is not restated
		// here; a name it rejects stays as sent and fails in buildGraph
		// with the parser's own error.
		shape.strategy = req.Strategy
		if st, err := train.ParseStrategy(req.Strategy); err == nil {
			shape.strategy = st.String()
		}
		shape.layers = max(req.Layers, 1)
		if req.Layers == 0 {
			shape.layers = 2
		}
	}
	return shape
}

// buildGraph constructs the computation a request shape names: the
// forward layer step of a miniaturized Table 1/2 model, or its
// fwd+bwd+SGD training step.
func (s *Server) buildGraph(shape requestShape) (*hlo.Computation, error) {
	s.graphBuilds.Add(1)
	cfg, err := models.ByName(shape.model)
	if err != nil {
		return nil, err
	}
	if shape.train {
		strategy, err := train.ParseStrategy(shape.strategy)
		if err != nil {
			return nil, err
		}
		tc, err := train.FromModel(cfg, shape.devices, shape.dim, shape.layers, strategy)
		if err != nil {
			return nil, err
		}
		prog, err := train.Build(tc)
		if err != nil {
			return nil, err
		}
		return prog.Comp, nil
	}
	mini, err := models.Miniature(cfg, shape.devices, shape.dim)
	if err != nil {
		return nil, err
	}
	return models.BuildLayerStep(mini)
}
