package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"overlap/internal/autotune"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// testConfig keeps compiles cheap: one executed candidate, no disk
// cache (each server starts cold and stays hermetic).
func testConfig() Config {
	return Config{
		DisableDiskCache: true,
		TuneTopK:         1,
	}
}

// newTestServer serves a new daemon over httptest. At cleanup it closes
// the listener, shuts the daemon down and checks that no goroutine
// outlives them: the count settles back to what it was before New.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	before := liveGoroutines()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			n := liveGoroutines()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines outlived the server, %d before New:\n%s", n, before, goroutineStacks())
				return
			}
		}
	})
	return s, ts
}

// goroutineStacks is every goroutine's stack.
func goroutineStacks() []byte {
	buf := make([]byte, 1<<16)
	for {
		n := goruntime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// liveGoroutines counts goroutines other than the einsum kernel pool's:
// the pool starts with the first parallel einsum and lives as long as
// the process.
func liveGoroutines() int {
	n := 0
	for _, g := range bytes.Split(goroutineStacks(), []byte("\n\n")) {
		if !bytes.Contains(g, []byte("created by overlap/internal/tensor.submit")) {
			n++
		}
	}
	return n
}

// postRun sends one /v1/run request and decodes the response; a non-200
// status returns the raw body in err.
func postRun(ts *httptest.Server, req Request) (*RunResponse, int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, nil, err
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, resp.StatusCode, nil, err
	}
	raw := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, raw, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var rr RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return nil, resp.StatusCode, raw, err
	}
	return &rr, resp.StatusCode, raw, nil
}

func miniatureRequest() Request {
	return Request{Model: "GPT_32B", Devices: 4, Dim: 2}
}

// TestWarmPathZeroCompilation pins the serving contract at the heart of
// the daemon: the first request compiles, every identical request after
// it is answered from the plan cache with zero compilation — witnessed
// by the compile counter standing still. The tensor-level split-K
// default is flipped between the requests: a plan's factor is in its
// program text, so the fingerprint must not move with it.
func TestWarmPathZeroCompilation(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	defer tensor.SetKernelSplitK(0)

	c0 := svCompiles.Value()
	first, _, _, err := postRun(ts, miniatureRequest())
	if err != nil {
		t.Fatalf("cold request: %v", err)
	}
	if first.Plan != "miss" {
		t.Fatalf("cold request plan = %q, want miss", first.Plan)
	}
	if svCompiles.Value()-c0 != 1 {
		t.Fatalf("cold request ran %v compiles, want 1", svCompiles.Value()-c0)
	}

	c1 := svCompiles.Value()
	for i := 0; i < 3; i++ {
		tensor.SetKernelSplitK([]int{2, 4, 0}[i])
		warm, _, _, err := postRun(ts, miniatureRequest())
		if err != nil {
			t.Fatalf("warm request %d: %v", i, err)
		}
		if warm.Plan != "hit" || warm.Fingerprint != first.Fingerprint {
			t.Fatalf("warm request %d plan = %q under %s, want hit under %s",
				i, warm.Plan, warm.Fingerprint, first.Fingerprint)
		}
		if warm.Digest != first.Digest {
			t.Fatalf("warm request %d digest %s != cold digest %s", i, warm.Digest, first.Digest)
		}
		if warm.TimingMS.Plan > first.TimingMS.Plan {
			t.Errorf("warm plan acquisition (%.3fms) slower than the cold compile (%.3fms)",
				warm.TimingMS.Plan, first.TimingMS.Plan)
		}
	}
	if d := svCompiles.Value() - c1; d != 0 {
		t.Fatalf("warm path ran %v compiles, want 0", d)
	}
}

// TestConcurrentIdenticalFingerprintSingleCompile is the soak the issue
// demands: 16 concurrent clients with the same fingerprint trigger
// exactly one compile (pinned by the counter metric), and every client
// gets a bit-identical answer that matches the lockstep interpreter on
// the same compiled program. They run the just-landed plan at once on
// the one Executable its compile returned, which stage 2 has already
// run and checked. CI runs this under -race.
func TestConcurrentIdenticalFingerprintSingleCompile(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	const clients = 16
	req := miniatureRequest()
	req.Seed = 5

	c0 := svCompiles.Value()
	var wg sync.WaitGroup
	responses := make([]*RunResponse, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], _, _, errs[i] = postRun(ts, req)
		}(i)
	}
	wg.Wait()

	if d := svCompiles.Value() - c0; d != 1 {
		t.Fatalf("%d concurrent identical requests ran %v compiles, want exactly 1", clients, d)
	}
	sources := map[string]int{}
	for i := range responses {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		sources[responses[i].Plan]++
		if responses[i].Digest != responses[0].Digest {
			t.Fatalf("client %d digest %s diverges from client 0's %s",
				i, responses[i].Digest, responses[0].Digest)
		}
	}
	if sources["miss"] != 1 {
		t.Fatalf("plan sources %v: want exactly one miss", sources)
	}
	if sources["miss"]+sources["coalesced"]+sources["hit"] != clients {
		t.Fatalf("plan sources %v do not account for all %d clients", sources, clients)
	}

	// The shared digest must be the interpreter's answer on the same
	// compiled program.
	checkInterpreterDigest(t, ts, req, responses[0].Digest)
}

// checkInterpreterDigest fetches the plan the server compiled for req
// and replays it in lockstep: digest must be the interpreter's answer.
func checkInterpreterDigest(t *testing.T, ts *httptest.Server, req Request, digest string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
		bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	plan, err := autotune.DecodePlan(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding served plan: %v", err)
	}
	comp, err := plan.Computation()
	if err != nil {
		t.Fatal(err)
	}
	args := Args(comp, req.Seed)
	all, err := sim.InterpretAll(comp, plan.Devices, args)
	if err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	if want := Digest(Outputs(comp, all, plan.Devices)); digest != want {
		t.Fatalf("%s: served digest %s != interpreter digest %s", req.Model, digest, want)
	}
}

// TestConcurrentDistinctFingerprintsCompileApart: two requests with
// different fingerprints arrive at once, so two compiles run at the
// same time, each building its search tree on its own workers. Each is
// a miss with a compile of its own, each answer is the interpreter's on
// the plan it compiled, and no worker outlives the server (the cleanup
// counts goroutines). CI runs this under -race.
func TestConcurrentDistinctFingerprintsCompileApart(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	reqs := []Request{miniatureRequest(), {Model: "T5_300B", Devices: 4, Dim: 2}}
	for i := range reqs {
		reqs[i].Seed = 5
	}

	c0 := svCompiles.Value()
	var wg sync.WaitGroup
	responses := make([]*RunResponse, len(reqs))
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i], _, _, errs[i] = postRun(ts, req)
		}()
	}
	wg.Wait()

	if d := svCompiles.Value() - c0; d != float64(len(reqs)) {
		t.Fatalf("%d concurrent distinct requests ran %v compiles, want %d", len(reqs), d, len(reqs))
	}
	for i, req := range reqs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", req.Model, errs[i])
		}
		if responses[i].Plan != "miss" {
			t.Fatalf("%s: plan %q, want miss", req.Model, responses[i].Plan)
		}
		checkInterpreterDigest(t, ts, req, responses[i].Digest)
	}
	if responses[0].Fingerprint == responses[1].Fingerprint {
		t.Fatalf("both requests share fingerprint %s", responses[0].Fingerprint)
	}
}

// TestRunErrorStructured5xx pins graceful degradation: a faulted run
// answers 503 with the structured RunError attribution, the daemon
// keeps serving, and the plan cache is not poisoned — the next healthy
// request is a warm hit.
func TestRunErrorStructured5xx(t *testing.T) {
	cfg := testConfig()
	cfg.DebugFaults = true
	_, ts := newTestServer(t, cfg)

	healthy, _, _, err := postRun(ts, miniatureRequest())
	if err != nil {
		t.Fatalf("priming request: %v", err)
	}

	e0 := svRunErrors.Value()
	faulted := miniatureRequest()
	faulted.Fault = "crash:dev:1"
	faulted.DeadlineMS = 30000
	_, status, raw, err := postRun(ts, faulted)
	if err == nil {
		t.Fatal("faulted run succeeded, want structured 5xx")
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("faulted run status = %d, want 503; body %s", status, raw)
	}
	if svRunErrors.Value()-e0 != 1 {
		t.Fatalf("run-error counter moved %v, want 1", svRunErrors.Value()-e0)
	}
	var body struct {
		Error    string `json:"error"`
		RunError *struct {
			Device int    `json:"device"`
			Phase  string `json:"phase"`
			Fault  string `json:"fault"`
			Cause  string `json:"cause"`
		} `json:"run_error"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("5xx body is not JSON: %v\n%s", err, raw)
	}
	if body.RunError == nil {
		t.Fatalf("5xx body carries no structured run_error: %s", raw)
	}
	if body.RunError.Device != 1 {
		t.Errorf("run_error.device = %d, want 1", body.RunError.Device)
	}
	if body.RunError.Fault == "" || body.RunError.Cause == "" {
		t.Errorf("run_error missing fault/cause: %s", raw)
	}
	if body.Fingerprint == "" {
		t.Errorf("5xx body missing the fingerprint: %s", raw)
	}

	// The daemon survived and the plan survived: same fingerprint, warm
	// hit, zero new compiles, bit-identical answer.
	c0 := svCompiles.Value()
	after, _, _, err := postRun(ts, miniatureRequest())
	if err != nil {
		t.Fatalf("request after faulted run: %v", err)
	}
	if after.Plan != "hit" {
		t.Fatalf("plan after faulted run = %q, want hit (cache must not be poisoned)", after.Plan)
	}
	if after.Digest != healthy.Digest {
		t.Fatalf("digest after faulted run diverges: %s != %s", after.Digest, healthy.Digest)
	}
	if d := svCompiles.Value() - c0; d != 0 {
		t.Fatalf("faulted run poisoned the cache: %v recompiles", d)
	}
}

// TestFaultRejectedWithoutDebugFaults: chaos is an operator decision;
// callers cannot inject faults into a production daemon.
func TestFaultRejectedWithoutDebugFaults(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	req := miniatureRequest()
	req.Fault = "crash:dev:1"
	_, status, _, err := postRun(ts, req)
	if err == nil || status != http.StatusForbidden {
		t.Fatalf("fault request without DebugFaults: status %d (err %v), want 403", status, err)
	}
}

// TestFaultSpecValidatedUpFront pins where a fault spec is judged: once,
// in request decoding. A spec that trims to nothing parses to a nil
// FaultPlan and injects nothing — it must not panic the handler; a
// malformed one is a 400 that never touched the compiler, even for a fingerprint
// the server has not seen; a valid one runs, and fails only as the
// structured 503.
func TestFaultSpecValidatedUpFront(t *testing.T) {
	cfg := testConfig()
	cfg.DebugFaults = true
	_, ts := newTestServer(t, cfg)

	blank := miniatureRequest()
	blank.Fault = " "
	if _, status, raw, err := postRun(ts, blank); err != nil {
		t.Fatalf("blank fault spec: status %d, want 200: %v\n%s", status, err, raw)
	}

	c0 := svCompiles.Value()
	malformed := Request{Model: "GPT_32B", Devices: 4, Dim: 4, Fault: "explode:dev:1"}
	if _, status, raw, _ := postRun(ts, malformed); status != http.StatusBadRequest {
		t.Fatalf("malformed fault spec: status %d, want 400\n%s", status, raw)
	}
	if d := svCompiles.Value() - c0; d != 0 {
		t.Fatalf("malformed fault spec cost %v compiles before it was rejected, want 0", d)
	}

	valid := miniatureRequest()
	valid.Fault = "delay:link:0-1:1ms"
	valid.FaultSeed = 7
	if _, status, raw, _ := postRun(ts, valid); status != http.StatusOK && status != http.StatusServiceUnavailable {
		t.Fatalf("valid fault spec: status %d, want 200 or 503\n%s", status, raw)
	}
}

// TestRequestValidation pins the request-surface errors. The server
// takes fault specs, so the fault rows reach the ring check.
func TestRequestValidation(t *testing.T) {
	cfg := testConfig()
	cfg.DebugFaults = true
	_, ts := newTestServer(t, cfg)
	cases := []struct {
		name   string
		method string
		body   string
		status int
	}{
		{"get method", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "{", http.StatusBadRequest},
		{"no devices", http.MethodPost, `{"model":"GPT_32B"}`, http.StatusBadRequest},
		{"model and program", http.MethodPost, `{"model":"GPT_32B","program":"x","devices":2}`, http.StatusBadRequest},
		{"neither model nor program", http.MethodPost, `{"devices":2}`, http.StatusBadRequest},
		{"unknown model", http.MethodPost, `{"model":"nope","devices":2}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, `{"model":"GPT_32B","devices":2,"dim":2}garbage`, http.StatusBadRequest},
		{"second object", http.MethodPost, `{"model":"GPT_32B","devices":2,"dim":2} {"devices":999}`, http.StatusBadRequest},
		{"deadline past a duration", http.MethodPost, `{"model":"GPT_32B","devices":2,"dim":2,"deadline_ms":9300000000000}`, http.StatusBadRequest},
		{"crash off the ring", http.MethodPost, `{"model":"GPT_32B","devices":2,"dim":2,"fault":"crash:dev:9"}`, http.StatusBadRequest},
		{"drop off the ring", http.MethodPost, `{"model":"GPT_32B","devices":2,"dim":2,"fault":"drop:link:0-7"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+"/v1/run", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// FuzzDecodeRequest: a /v1/run body is outside input. Whatever its
// bytes, decodeRequest and resolve answer a 4xx or accept the request,
// never panic, and accept none that is more than one JSON value, that
// names a ring past maxDevices, a dim
// or layer count past maxDim or maxLayers, a deadline that does not put
// the run's deadline after its start, a fault the ring does not have, a
// program whose modeled live bytes across the ring pass maxProgramBytes,
// or an inline program whose loops run past maxInlineLoopWork body
// instructions. The seeds under testdata/fuzz are the bodies of
// TestRequestValidation,
// TestMalformedInlineProgramIs400, TestInlineLoopWorkIsBounded and
// TestRequestSizeIsBounded; plain go test replays them.
func FuzzDecodeRequest(f *testing.F) {
	cfg := testConfig()
	cfg.DebugFaults = true // so fault specs reach their parser
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w, r := httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		req, status, err := s.decodeRequest(w, r)
		if err != nil {
			if status < 400 || status >= 500 {
				t.Fatalf("a rejected body answered %d, want a 4xx", status)
			}
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted a body that is not one JSON value: %q", body)
		}
		if req.Devices < 1 || req.Devices > maxDevices {
			t.Fatalf("accepted a request on %d devices", req.Devices)
		}
		if req.Dim > maxDim || req.Layers > maxLayers {
			t.Fatalf("accepted a request of dim %d and %d layers", req.Dim, req.Layers)
		}
		before := time.Now()
		ctx, cancel := s.runContext(r, req)
		deadline, ok := ctx.Deadline()
		cancel()
		if !ok || !deadline.After(before) {
			t.Fatalf("accepted a request whose deadline_ms %d gives its run a deadline %v before it started", req.DeadlineMS, deadline.Sub(before))
		}
		if err := req.faults.Validate(req.Devices); err != nil {
			t.Fatalf("accepted a fault spec that does not fit its %d-device ring: %v", req.Devices, err)
		}
		prog, err := s.resolve(req)
		if err != nil {
			return // the handler's 400
		}
		if prog.comp != nil { // nil for a shape resolved, and bounded, before
			prog.comp.Walk(func(in *hlo.Instruction) {
				bytes := 4.0 // in float64, which a shape cannot overflow
				for _, d := range in.Shape {
					bytes *= float64(d)
				}
				if bytes*float64(req.Devices) > maxProgramBytes {
					t.Fatalf("accepted a program whose %s %v is %g bytes on each of %d devices", in.Name, in.Shape, bytes, req.Devices)
				}
			})
			if peak := hlo.PeakMemory(prog.comp).PeakBytes; peak*int64(req.Devices) > maxProgramBytes {
				t.Fatalf("accepted a program peaking at %d bytes on each of %d devices", peak, req.Devices)
			}
		}
		if req.Program == "" {
			return
		}
		work := 0
		for i := 0; i < prog.comp.NumInstructions(); i++ {
			if in := prog.comp.At(i); in.Op == hlo.OpLoop {
				work += in.TripCount * max(in.Body.NumInstructions(), 1)
			}
		}
		if work > maxInlineLoopWork {
			t.Fatalf("accepted an inline program whose loops run %d body instructions", work)
		}
	})
}

// TestCallerCannotScaleTheWire: the wire-delay scale is the plan's. A
// body asking for a billion-fold scale under an hour's deadline runs at
// the plan's clock and answers promptly, and with one admission slot an
// ordinary request sent beside it still gets the slot.
func TestCallerCannotScaleTheWire(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrentRuns = 1
	_, ts := newTestServer(t, cfg)
	mustRun(t, ts, miniatureRequest()) // compile outside the measured part

	answered := map[string]chan error{}
	for name, body := range map[string]string{
		"stretched": `{"model":"GPT_32B","devices":4,"dim":2,"timescale":1e9,"deadline_ms":3600000}`,
		"ordinary":  `{"model":"GPT_32B","devices":4,"dim":2}`,
	} {
		done := make(chan error, 1)
		answered[name] = done
		go func() {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			done <- err
		}()
	}
	timeout := time.After(30 * time.Second)
	for name, done := range answered {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s request: %v", name, err)
			}
		case <-timeout:
			t.Fatalf("the %s request did not answer within 30s", name)
		}
	}
}

// TestClientDisconnectFreesItsSlot: a client that hangs up mid-run takes
// its run with it. A transfer dropped on the wire holds the run for as
// long as the test lets it; cancelling the request ends the run with
// the context's error, attributed to the fault, the handler returns,
// and on a one-slot server the next request is admitted at once.
func TestClientDisconnectFreesItsSlot(t *testing.T) {
	cfg := testConfig()
	cfg.DebugFaults = true
	cfg.MaxConcurrentRuns = 1
	s, ts := newTestServer(t, cfg)
	mustRun(t, ts, miniatureRequest()) // compile outside the measured part

	held := miniatureRequest()
	held.Fault = "drop:link:0-1:0"
	held.DeadlineMS = 60000 // only so that a regression fails instead of hanging
	body, err := json.Marshal(held)
	if err != nil {
		t.Fatal(err)
	}
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	runErrors0 := svRunErrors.Value()
	// The run holds only once the drop has fired, at the dropped
	// parcel's post; a hang-up before that ends the run somewhere else,
	// attributed to no fault.
	drops := obs.Default().Counter("overlap_runtime_fault_drops_total", "")
	drops0 := drops.Value()
	answered := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(r)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		answered <- err
	}()
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s did not happen within 30s", what)
			}
		}
	}
	waitUntil("the held run's admission", func() bool { return len(s.slots) == 1 })
	waitUntil("the drop fault", func() bool { return drops.Value() > drops0 })
	hangUp()
	if err := <-answered; !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled request answered %v, want the client's context.Canceled", err)
	}
	// The handler leaves pending last, after the run, its record and the
	// slot are done with.
	waitUntil("the handler's return", func() bool { return len(s.pending) == 0 })
	if len(s.slots) != 0 {
		t.Fatal("the handler returned still holding its admission slot")
	}
	if got := svRunErrors.Value() - runErrors0; got != 1 {
		t.Fatalf("run-error counter moved %v, want 1", got)
	}
	runs := s.recorder.list()
	if len(runs) == 0 {
		t.Fatal("the cancelled run left no trace")
	}
	trace := s.recorder.get(runs[0].ID)
	if trace.Status != obs.StatusFailed || trace.Error == nil ||
		!strings.Contains(trace.Error.Cause, context.Canceled.Error()) || trace.Error.Fault != held.Fault {
		t.Fatalf("the cancelled run's trace: status %q, error %+v; want failed with the context's error on the drop fault", trace.Status, trace.Error)
	}

	rr, _, _, err := postRun(ts, miniatureRequest())
	if err != nil {
		t.Fatalf("request after the disconnect: %v", err)
	}
	if rr.TimingMS.Admission > 1000 {
		t.Fatalf("request after the disconnect waited %.0f ms for admission, want at once", rr.TimingMS.Admission)
	}
}

// TestMalformedInlineProgramIs400 sends program text the builder methods
// panic on — a collective with no operand, an einsum whose spec names a
// label no operand has, a one-operand add. Each must come back as a
// structured 400 naming the line, on both endpoints that take a program,
// and the daemon must go on serving.
func TestMalformedInlineProgramIs400(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for name, program := range map[string]string{
		"operandless collective": "m {\n  %p = f32[] parameter()\n  %g = f32[] all-gather()\n}",
		"missing einsum label":   "m {\n  %a = f32[2 2] parameter(), index=0\n  %e = f32[2 2] einsum(%a, %a), spec=\"ab,bc->ad\"\n}",
		"one-operand add":        "m {\n  %a = f32[2] parameter(), index=0\n  %s = f32[2] add(%a)\n}",
	} {
		for _, endpoint := range []string{"/v1/run", "/v1/compile"} {
			body, err := json.Marshal(Request{Program: program, Devices: 2})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: the daemon dropped the connection: %v", name, endpoint, err)
			}
			var eb errorBody
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(eb.Error, "hlo: line 3: ") {
				t.Errorf("%s %s: status %d, body %+v (decode: %v); want a 400 naming line 3", name, endpoint, resp.StatusCode, eb, err)
			}
		}
	}
	if _, _, _, err := postRun(ts, miniatureRequest()); err != nil {
		t.Fatalf("the daemon stopped serving after malformed programs: %v", err)
	}
}

// postProgram posts an inline program at devices: 2 and returns the
// status and the structured error body.
func postProgram(t *testing.T, ts *httptest.Server, endpoint, program string) (int, errorBody) {
	t.Helper()
	body, err := json.Marshal(Request{Program: program, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: the daemon dropped the connection: %v", endpoint, err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("%s: status %d with a body that is not a structured error: %v", endpoint, resp.StatusCode, err)
	}
	return resp.StatusCode, eb
}

// TestOutOfRingInlineProgramIs400 sends programs that parse and verify
// but name a device the request's 2-device ring does not have. The
// simulator indexes by device id: before hlo.VerifyRing stood at the
// front door the first of these panicked autotune stage 1 on the
// daemon's compile goroutine and took the process down. Each must be a
// 400 naming the instruction, and the daemon must go on serving.
func TestOutOfRingInlineProgramIs400(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	const head = "m {\n  %a = f32[2 2] parameter(), index=0\n"
	for name, tc := range map[string]struct{ program, want string }{
		"group device": {head + "  %g = f32[4 2] all-gather(%a), axis=0 groups=[[0 99]]\n}",
			"hlo: g group device 99 out of range [0,2)"},
		"pair target": {head + "  %p = f32[2 2] collective-permute(%a), pairs=[{0,99}]\n}",
			"hlo: p pair 0->99 out of range [0,2)"},
		"negative pair source": {head + "  %s = f32[2 2] collective-permute-start(%a), pairs=[{-1,0}]\n  %d = f32[2 2] collective-permute-done(%s), pairs=[{-1,0}]\n}",
			"hlo: s pair -1->0 out of range [0,2)"},
	} {
		for _, endpoint := range []string{"/v1/run", "/v1/compile"} {
			if status, eb := postProgram(t, ts, endpoint, tc.program); status != http.StatusBadRequest || !strings.Contains(eb.Error, tc.want) {
				t.Errorf("%s %s: status %d, body %+v; want a 400 containing %q", name, endpoint, status, eb, tc.want)
			}
		}
	}
	if _, _, _, err := postRun(ts, miniatureRequest()); err != nil {
		t.Fatalf("the daemon stopped serving after out-of-ring programs: %v", err)
	}
}

// TestInlineLoopWorkIsBounded: a trip count is the one number that makes
// a small text a long run. A loop past maxInlineLoopWork is a 400 naming
// it; the same loop with a ring-sized trip count runs; and every corpus
// program — what the pipeline's own tests take for realistic — is far
// inside the bound.
func TestInlineLoopWorkIsBounded(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	loop := func(trip int) string {
		return fmt.Sprintf("m {\n  %%a = f32[2 2] parameter(), index=0\n  %%spin = f32[2 2] loop(%%a), trip=%d result=0\n"+
			"    | body {\n    |   %%x = f32[2 2] parameter(), index=0\n    |   %%y = f32[2 2] add(%%x, %%x)\n    |   %%t = f32[] tuple(%%y)\n    | }\n}", trip)
	}
	for _, endpoint := range []string{"/v1/run", "/v1/compile"} {
		status, eb := postProgram(t, ts, endpoint, loop(999999999))
		if status != http.StatusBadRequest || !strings.Contains(eb.Error, "loop spin (trip count 999999999, 3 body instructions)") {
			t.Errorf("%s: status %d, body %+v; want a 400 naming loop spin", endpoint, status, eb)
		}
	}
	if _, _, _, err := postRun(ts, Request{Program: loop(2), Devices: 2, Check: true}); err != nil {
		t.Fatalf("a two-trip loop is refused: %v", err)
	}

	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if err := boundLoopWork(p.Comp); err != nil {
			t.Errorf("corpus program %s is past the inline bound: %v", p.Name, err)
		}
	}
}

// TestDevicesAreBounded: a run sizes a goroutine, slot tables and a
// window of its span slab per device, and the simulator and the trace
// layout size by the ring too, so a request's devices is capped. One
// past maxDevices is a structured 400 naming the limit, on both
// endpoints, for a model and for an inline program alike; every corpus
// program and the widest ring the tests serve are well inside it.
func TestDevicesAreBounded(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	want := fmt.Sprintf("devices <= %d", maxDevices)
	for name, req := range map[string]Request{
		"model":  {Model: "GPT_32B", Devices: maxDevices + 1, Dim: 2},
		"train":  {Model: "GPT_32B", Devices: maxDevices + 1, Dim: 2, Scenario: "train"},
		"inline": {Program: "m {\n  %a = f32[2 2] parameter(), index=0\n}", Devices: 1 << 30},
	} {
		for _, endpoint := range []string{"/v1/run", "/v1/compile"} {
			resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(mustJSON(t, req)))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(eb.Error, want) {
				t.Errorf("%s %s: status %d, body %+v (decode: %v); want a 400 naming %q", name, endpoint, resp.StatusCode, eb, err, want)
			}
		}
	}
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if p.Devices > maxDevices {
			t.Errorf("corpus program %s runs on %d devices, past the bound", p.Name, p.Devices)
		}
	}
	if _, _, _, err := postRun(ts, Request{Model: "GPT_32B", Devices: 8, Dim: 2}); err != nil {
		t.Fatalf("an 8-device request is refused: %v", err)
	}
}

// TestRequestSizeIsBounded: what a request's numbers make the daemon
// allocate is bounded before anything is compiled. An inline parameter
// of f32[100000000000 100000], which passes the parser, the ring check
// and the loop bound and used to panic the compile goroutine in Args —
// process and all — is a 400; so is one whose byte size wraps int64 to
// zero, an inline program whose every result fits but whose peak does
// not, a model layer and a training step that are modeled at gigabytes
// on 64 devices, a model dim past maxDim and a training step past
// maxLayers. Each on both endpoints, and the daemon goes on serving.
// Every corpus program is far inside the memory bound.
func TestRequestSizeIsBounded(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for name, tc := range map[string]struct {
		req  Request
		want string
	}{
		"inline parameter": {Request{Program: "m {\n  %a = f32[100000000000 100000] parameter(), index=0\n}", Devices: 2},
			"the program peaks at 40000000000000000 live bytes per device, past the 33554432 a 2-device program may use"},
		"inline overflow": {Request{Program: "m {\n  %a = f32[4611686018427387904 4] parameter(), index=0\n}", Devices: 2},
			"the program peaks at 9223372036854775807 live bytes"}, // 2^66 bytes: int64 arithmetic would see 0
		"inline peak": {Request{Program: "m {\n  %a = f32[256 1024] parameter(), index=0\n  %b = f32[256 1024] parameter(), index=1\n  %c = f32[256 1024] add(%a, %b)\n}", Devices: 64},
			"the program peaks at 3145728 live bytes per device, past the 1048576"},
		"model": {Request{Model: "BigSSL_10B", Devices: 64, Dim: 8}, "past the 1048576 a 64-device program may use"},
		"train": {Request{Model: "GPT_1T", Devices: 64, Dim: 8, Scenario: "train", Strategy: "ddp", Layers: 2},
			"past the 1048576 a 64-device program may use"},
		"dim":    {Request{Model: "GPT_32B", Devices: 2, Dim: maxDim + 1}, fmt.Sprintf("dim <= %d", maxDim)},
		"layers": {Request{Model: "GPT_32B", Devices: 2, Dim: 2, Scenario: "train", Layers: maxLayers + 1}, fmt.Sprintf("layers <= %d", maxLayers)},
	} {
		for _, endpoint := range []string{"/v1/run", "/v1/compile"} {
			resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(mustJSON(t, tc.req)))
			if err != nil {
				t.Fatalf("%s %s: the daemon dropped the connection: %v", name, endpoint, err)
			}
			var eb errorBody
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(eb.Error, tc.want) {
				t.Errorf("%s %s: status %d, body %+v (decode: %v); want a 400 containing %q", name, endpoint, resp.StatusCode, eb, err, tc.want)
			}
		}
	}
	if _, _, _, err := postRun(ts, miniatureRequest()); err != nil {
		t.Fatalf("the daemon stopped serving after oversized requests: %v", err)
	}
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if err := boundMemory(p.Comp, p.Devices); err != nil {
			t.Errorf("corpus program %s is past the memory bound: %v", p.Name, err)
		}
	}
}

// TestRestartedDaemonAnswersFromDisk restarts the daemon over one plan
// store: the second server has an empty plan cache, so its first request
// for a shape the first server compiled goes through the compile closure
// — and comes out of the store's directory. No candidate is simulated,
// none executed; the stored plan reaches the runtime by the path a fresh
// one takes and gives the first server's digest, checked against the
// interpreter.
func TestRestartedDaemonAnswersFromDisk(t *testing.T) {
	cfg := testConfig()
	cfg.DisableDiskCache = false
	cfg.CachePath = filepath.Join(t.TempDir(), "plans")
	req := miniatureRequest()
	req.Check = true

	_, first := newTestServer(t, cfg)
	cold, _, _, err := postRun(first, req)
	if err != nil {
		t.Fatal(err)
	}

	counter := func(name string) float64 { return obs.Default().Counter(name, "").Value() }
	executions, simulated, hits := counter("overlap_autotune_executions_total"),
		counter("overlap_sim_instructions_total"), counter("overlap_autotune_cache_hits_total")

	_, second := newTestServer(t, cfg)
	warm, _, _, err := postRun(second, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Plan != "miss" {
		t.Fatalf("the restarted daemon's plan cache answered (%q): the request never reached the store", warm.Plan)
	}
	if d := counter("overlap_autotune_executions_total") - executions; d != 0 {
		t.Errorf("the restarted daemon executed %v candidates for a stored plan", d)
	}
	if d := counter("overlap_sim_instructions_total") - simulated; d != 0 {
		t.Errorf("the restarted daemon simulated %v instructions for a stored plan", d)
	}
	if d := counter("overlap_autotune_cache_hits_total") - hits; d != 1 {
		t.Errorf("the store answered %v times, want 1", d)
	}
	if warm.Fingerprint != cold.Fingerprint || warm.BestName != cold.BestName || warm.Digest != cold.Digest || !warm.Checked {
		t.Errorf("restarted daemon answered %+v, first daemon %+v", warm, cold)
	}
}

// TestEveryCompilePathServesOneAnswer: a daemon serves a plan on what
// its compile returned — stage 2's checked winner, or a stored plan
// whose decode parse is lowered once — or on the entry of a body it
// holds under another name, and all answer alike. A cold compile's
// digest is the digest of a daemon restarted over the same plan
// directory, which answers from disk, whether it is asked for the shape
// or for a twin of it (another name on the same body), and of a fresh
// daemon that serves the shape as the twin of a body it searched under
// another name, tuning nothing. Every cache entry holds the plan's own
// program.
func TestEveryCompilePathServesOneAnswer(t *testing.T) {
	cfg := testConfig()
	cfg.DisableDiskCache = false
	cfg.CachePath = filepath.Join(t.TempDir(), "plans")
	req := miniatureRequest()
	req.Check, req.Seed = true, 9
	sibling := req
	sibling.Model = "GPT_64B"
	counter := func(name string) float64 { return obs.Default().Counter(name, "").Value() }
	// served posts req and checks the cache entry it was answered from.
	served := func(s *Server, ts *httptest.Server, req Request, path string) *RunResponse {
		t.Helper()
		rr := mustRun(t, ts, req)
		cp, ok := s.plans.get(rr.Fingerprint)
		if !ok || rr.Plan != "miss" || !rr.Checked {
			t.Fatalf("%s: plan %q, cached %v, checked %v: want a checked compile", path, rr.Plan, ok, rr.Checked)
		}
		if cp.comp.Format() != cp.plan.Program {
			t.Fatalf("%s: the cache entry's program is not its plan's", path)
		}
		return rr
	}

	first, firstTS := newTestServer(t, cfg)
	cold := served(first, firstTS, req, "cold compile")

	restarted, restartedTS := newTestServer(t, cfg)
	hits := counter("overlap_autotune_cache_hits_total")
	fromDisk := served(restarted, restartedTS, req, "restarted daemon")
	if d := counter("overlap_autotune_cache_hits_total") - hits; d != 1 {
		t.Fatalf("the restarted daemon's store answered %v times, want 1", d)
	}
	restartedTwin, restartedTwinTS := newTestServer(t, cfg)
	hits, executions := counter("overlap_autotune_cache_hits_total"), counter("overlap_autotune_executions_total")
	twinFromDisk := served(restartedTwin, restartedTwinTS, sibling, "restarted daemon's twin")
	if h, x := counter("overlap_autotune_cache_hits_total")-hits, counter("overlap_autotune_executions_total")-executions; h != 1 || x != 0 {
		t.Fatalf("the restarted daemon answered a twin of a stored body with %v store hits and %v executions, want 1 and 0", h, x)
	}

	cfg.DisableDiskCache = true
	fresh, freshTS := newTestServer(t, cfg)
	served(fresh, freshTS, sibling, "fresh daemon's body")
	tunes := counter("overlap_autotune_tunes_total")
	twin := served(fresh, freshTS, req, "fresh daemon's twin")
	if d := counter("overlap_autotune_tunes_total") - tunes; d != 0 {
		t.Fatalf("the fresh daemon's twin ran %v tunes, want 0", d)
	}
	if twinFromDisk.Fingerprint == cold.Fingerprint || twinFromDisk.BestName != cold.BestName || twinFromDisk.Digest != cold.Digest {
		t.Errorf("the restarted daemon's twin answered %s %s %s, the cold compile %s %s %s",
			twinFromDisk.Fingerprint, twinFromDisk.BestName, twinFromDisk.Digest, cold.Fingerprint, cold.BestName, cold.Digest)
	}

	for _, rr := range []*RunResponse{fromDisk, twin} {
		if rr.Fingerprint != cold.Fingerprint || rr.BestName != cold.BestName || rr.Digest != cold.Digest {
			t.Errorf("answered %s %s %s, the cold compile %s %s %s",
				rr.Fingerprint, rr.BestName, rr.Digest, cold.Fingerprint, cold.BestName, cold.Digest)
		}
	}
}

// TestServedRunsInjectThePlanClock: a served run injects wire at its
// plan's clock — breakdown_ms.wire is plan.time_scale times the plan
// program's modeled per-device wire, up to the truncation of each
// injected time.Duration (1 µs allows a thousand) — and a plan a
// restarted daemon reads back from the disk tier runs at the clock it
// was stored with, not at a new measurement.
func TestServedRunsInjectThePlanClock(t *testing.T) {
	cfg := testConfig()
	cfg.DisableDiskCache = false
	cfg.CachePath = filepath.Join(t.TempDir(), "plans")
	req := miniatureRequest()
	var stored float64
	for _, daemon := range []string{"compiling", "restarted"} {
		_, ts := newTestServer(t, cfg)
		run, _, _, err := postRun(ts, req)
		if err != nil {
			t.Fatalf("%s daemon: %v", daemon, err)
		}
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(mustJSON(t, req)))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := autotune.DecodePlan(body.Bytes())
		if err != nil {
			t.Fatalf("%s daemon: %v", daemon, err)
		}
		if plan.TimeScale <= 0 {
			t.Fatalf("%s daemon: the plan carries clock %v", daemon, plan.TimeScale)
		}
		if stored == 0 {
			stored = plan.TimeScale
		} else if plan.TimeScale != stored {
			t.Fatalf("the restarted daemon's plan runs at clock %v, stored at %v", plan.TimeScale, stored)
		}
		comp, err := plan.Computation()
		if err != nil {
			t.Fatal(err)
		}
		modeled, err := sim.Simulate(comp, plan.Devices, machine.TPUv4())
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s daemon: winner %s at clock %.4g injected %.4g ms of wire per device", daemon, plan.BestName, plan.TimeScale, run.BreakdownMS.Wire)
		if want := plan.TimeScale * modeled.CollectiveWire * 1e3; math.Abs(run.BreakdownMS.Wire-want) > 1e-3 {
			t.Errorf("%s daemon: the run injected %v ms of wire per device, clock %v × modeled %v s is %v ms",
				daemon, run.BreakdownMS.Wire, plan.TimeScale, modeled.CollectiveWire, want)
		}
	}
}

// TestPlansEndpoint lists cached fingerprints after a run.
func TestPlansEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	first, _, _, err := postRun(ts, miniatureRequest())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Plans []string `json:"plans"`
		Size  int      `json:"size"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Plans) != 1 || body.Plans[0] != first.Fingerprint {
		t.Fatalf("plans = %v, want [%s]", body.Plans, first.Fingerprint)
	}
	if body.Size != len(body.Plans) {
		t.Fatalf("size = %d beside %d plans: both must come from one snapshot", body.Size, len(body.Plans))
	}
}

// TestShutdownDrains pins the graceful-drain contract: Shutdown answers
// in-flight work, then refuses new requests with 503.
func TestShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	if _, _, _, err := postRun(ts, miniatureRequest()); err != nil {
		t.Fatalf("priming request: %v", err)
	}

	inflight := make(chan error, 1)
	go func() {
		_, _, _, err := postRun(ts, miniatureRequest())
		inflight <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the request enter the handler

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}

	_, status, _, err := postRun(ts, miniatureRequest())
	if err == nil || status != http.StatusServiceUnavailable {
		t.Fatalf("request after drain: status %d (err %v), want 503", status, err)
	}
}

// TestHealthAndMetricsEndpoints sanity-checks the operational surface.
func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
