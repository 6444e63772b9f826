package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"overlap/internal/autotune"
	"overlap/internal/machine"
	"overlap/internal/obs"
)

// mustRun posts one /v1/run request and fails the test on anything but
// a 200.
func mustRun(t *testing.T, ts *httptest.Server, req Request) *RunResponse {
	t.Helper()
	rr, _, _, err := postRun(ts, req)
	if err != nil {
		t.Fatalf("request %+v: %v", req, err)
	}
	return rr
}

// TestKnownShapeBuildsNoGraph pins the alias fast path: the first
// request of a shape builds its graph once — to name it, and the
// compile closure reuses that graph — and every later request of the
// shape is answered without models.BuildLayerStep / train.Build running
// at all, under the same fingerprint and with the same digest.
func TestKnownShapeBuildsNoGraph(t *testing.T) {
	for _, req := range []Request{miniatureRequest(), trainRequest("megatron")} {
		s, ts := newTestServer(t, testConfig())
		first := mustRun(t, ts, req)
		if got := s.graphBuilds.Load(); got != 1 {
			t.Fatalf("%s: the cold request built %d graphs, want 1", scenarioLabel(req.Scenario), got)
		}
		for i := 0; i < 3; i++ {
			warm := mustRun(t, ts, req)
			if warm.Plan != "hit" || warm.Fingerprint != first.Fingerprint || warm.Digest != first.Digest {
				t.Fatalf("%s: warm request %d = plan %q under %s digest %s, want hit under %s digest %s",
					scenarioLabel(req.Scenario), i, warm.Plan, warm.Fingerprint, warm.Digest, first.Fingerprint, first.Digest)
			}
		}
		if got := s.graphBuilds.Load(); got != 1 {
			t.Fatalf("%s: three warm requests of a known shape built %d more graphs, want 0",
				scenarioLabel(req.Scenario), got-1)
		}
		// Fields the scenario ignores, and defaults spelled out, are the
		// same shape.
		same := req
		if req.Scenario == "train" {
			same.Strategy = ""
		} else {
			same.Scenario, same.Layers, same.Strategy = "layer", 7, "ddp"
		}
		if again := mustRun(t, ts, same); again.Plan != "hit" || s.graphBuilds.Load() != 1 {
			t.Fatalf("%s: an equivalent spelling of the shape was not recognised (plan %q, %d graphs built)",
				scenarioLabel(req.Scenario), again.Plan, s.graphBuilds.Load())
		}
	}
}

// TestAliasNeverServesStaleEnvironment pins autotune.Key's contract
// through the alias: only the program half of a fingerprint is
// remembered per shape. A change of the host's parallelism (GOMAXPROCS,
// the kernel-worker count) between two requests of one shape must
// change the fingerprint and miss the plan cache, exactly as it did when
// every request rebuilt its graph; changing it back must hit the first
// plan again.
func TestAliasNeverServesStaleEnvironment(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	s, ts := newTestServer(t, testConfig())
	req := miniatureRequest()

	first := mustRun(t, ts, req)
	if warm := mustRun(t, ts, req); warm.Plan != "hit" {
		t.Fatalf("second request plan = %q, want hit", warm.Plan)
	}

	goruntime.GOMAXPROCS(2)
	c0 := svCompiles.Value()
	moved := mustRun(t, ts, req)
	if moved.Fingerprint == first.Fingerprint {
		t.Fatalf("fingerprint %s did not move with the kernel-worker count: the alias served a stale environment", moved.Fingerprint)
	}
	if moved.Plan != "miss" || svCompiles.Value()-c0 != 1 {
		t.Fatalf("request under the new environment: plan %q, %v compiles; want miss, 1", moved.Plan, svCompiles.Value()-c0)
	}
	if moved.Digest != first.Digest {
		t.Fatalf("digest moved with the kernel-worker count: %s vs %s", moved.Digest, first.Digest)
	}
	if plans := s.plans.keys(); len(plans) != 2 {
		t.Fatalf("plan cache holds %d plans, want one per environment", len(plans))
	}

	goruntime.GOMAXPROCS(1)
	if back := mustRun(t, ts, req); back.Plan != "hit" || back.Fingerprint != first.Fingerprint {
		t.Fatalf("back under the first environment: plan %q under %s, want hit under %s", back.Plan, back.Fingerprint, first.Fingerprint)
	}
}

// TestEvictionDropsAliasesAndExecutable pins "aliases die with their
// plan": with room for one plan, a second shape evicts the first plan,
// and with it the first shape's alias and its Executable — the next
// request of the first shape rebuilds its graph and compiles again.
func TestEvictionDropsAliasesAndExecutable(t *testing.T) {
	cfg := testConfig()
	cfg.PlanCacheSize = 1
	s, ts := newTestServer(t, cfg)
	a, b := miniatureRequest(), miniatureRequest()
	b.Model = "T5_300B"

	first := mustRun(t, ts, a)
	if _, ok := s.plans.fingerprintOf(shapeOf(&a)); !ok {
		t.Fatal("the first shape was not remembered")
	}
	mustRun(t, ts, b)
	if _, ok := s.plans.fingerprintOf(shapeOf(&a)); ok {
		t.Fatal("the first shape's alias outlived its evicted plan")
	}
	if _, ok := s.plans.get(first.Fingerprint); ok {
		t.Fatal("the first plan and its Executable survived eviction")
	}
	s.plans.mu.Lock()
	aliases := len(s.plans.aliases)
	s.plans.mu.Unlock()
	if plans := s.plans.keys(); aliases != 1 || len(plans) != 1 {
		t.Fatalf("%d aliases over %d plans, want 1 over 1", aliases, len(plans))
	}

	builds := s.graphBuilds.Load()
	if again := mustRun(t, ts, a); again.Plan != "miss" || s.graphBuilds.Load() != builds+1 {
		t.Fatalf("first shape after eviction: plan %q, %d graphs built; want miss, 1",
			again.Plan, s.graphBuilds.Load()-builds)
	}
}

// TestTwoModelsOneProgramShareOnePlan: a training step is miniaturized
// to (devices, dim, layers) alone, so two model names build the same
// program. They must share one plan — the second name's first request
// builds its graph to find that out and hits — and both names must be
// fast afterwards.
func TestTwoModelsOneProgramShareOnePlan(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	a, b := trainRequest("megatron"), trainRequest("megatron")
	b.Model = "T5_300B"

	first := mustRun(t, ts, a)
	second := mustRun(t, ts, b)
	if second.Plan != "hit" || second.Fingerprint != first.Fingerprint {
		t.Fatalf("second model name: plan %q under %s, want hit under %s", second.Plan, second.Fingerprint, first.Fingerprint)
	}
	if plans := s.plans.keys(); len(plans) != 1 {
		t.Fatalf("plan cache holds %d plans for one program", len(plans))
	}
	if got := s.graphBuilds.Load(); got != 2 {
		t.Fatalf("two new shapes built %d graphs, want 2", got)
	}
	for _, req := range []Request{a, b, a, b} {
		if warm := mustRun(t, ts, req); warm.Plan != "hit" {
			t.Fatalf("%s: plan %q, want hit", req.Model, warm.Plan)
		}
	}
	if got := s.graphBuilds.Load(); got != 2 {
		t.Fatalf("warm requests under either name built %d more graphs, want 0", got-2)
	}
}

// TestTwinsShareOneEntry: GPT_32B, GPT_64B, GPT_128B and GPT_256B
// build one layer program apart from the computation's name, so they
// are one body: one plan cache entry, one plan. A twin's first request
// is a miss under a request key of its own, and its compile is one
// lookup — no tune, no execution, no simulation: it runs the body's
// Executable and digests as the body does. Two twins POSTed at once on a
// fresh server land one entry and one digest, and an eviction drops a
// body with every name and shape that aliased it.
func TestTwinsShareOneEntry(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	a := Request{Model: "GPT_32B", Devices: 4, Dim: 8}
	b, c, d := a, a, a
	b.Model, c.Model, d.Model = "GPT_64B", "GPT_128B", "GPT_256B"
	held := func(pc *planCache) (bodies, names, shapes int) {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		return len(pc.bodies), len(pc.names), len(pc.aliases)
	}
	work := func() []float64 {
		var out []float64
		for _, name := range []string{"overlap_autotune_tunes_total", "overlap_autotune_executions_total", "overlap_sim_runs_total"} {
			out = append(out, obs.Default().Counter(name, "").Value())
		}
		return out
	}

	first := mustRun(t, ts, a)
	before := work()
	second := mustRun(t, ts, b)
	if after := work(); second.Plan != "miss" || !slices.Equal(after, before) {
		t.Fatalf("the twin's first request: plan %q, tunes, executions and simulations %v -> %v; want a miss that moves none",
			second.Plan, before, after)
	}
	if second.Fingerprint == first.Fingerprint || second.BestName != first.BestName || second.Digest != first.Digest {
		t.Fatalf("the twin answered %s %s %s, its body %s %s %s: want its own key and the body's plan and digest",
			second.Fingerprint, second.BestName, second.Digest, first.Fingerprint, first.BestName, first.Digest)
	}
	body, _ := s.plans.get(first.Fingerprint)
	twin, ok := s.plans.get(second.Fingerprint)
	if !ok || twin != body || twin.exe != body.exe {
		t.Fatal("the twin's request key does not alias its body's entry and Executable")
	}
	if want, err := s.buildGraph(shapeOf(&b)); err != nil || body.plan.Fingerprint != autotune.Key(want, machine.TPUv4(), b.Devices) {
		t.Fatalf("the body's plan is keyed %s, not by the twin's body (%v)", body.plan.Fingerprint, err)
	}
	if bodies, names, shapes := held(s.plans); bodies != 1 || names != 2 || shapes != 2 {
		t.Fatalf("two names of one body left %d names and %d shapes over %d bodies, want 2 and 2 over 1", names, shapes, bodies)
	}

	cfg := testConfig()
	cfg.PlanCacheSize = 1
	fresh, freshTS := newTestServer(t, cfg)
	twins := []Request{c, d}
	answers := make([]*RunResponse, len(twins))
	var wg sync.WaitGroup
	for i, req := range twins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr, _, _, err := postRun(freshTS, req)
			if err != nil {
				t.Errorf("%s: %v", req.Model, err)
			}
			answers[i] = rr
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if bodies, names, _ := held(fresh.plans); answers[0].Digest != answers[1].Digest || bodies != 1 || names != 2 {
		t.Fatalf("twins compiled at once digest %s and %s, %d names over %d bodies; want one digest, 2 names over 1 body",
			answers[0].Digest, answers[1].Digest, names, bodies)
	}

	other := mustRun(t, freshTS, Request{Model: "T5_300B", Devices: 4, Dim: 8})
	for i, req := range twins {
		if _, ok := fresh.plans.get(answers[i].Fingerprint); ok {
			t.Fatalf("%s's request key outlived its evicted body", req.Model)
		}
		if _, ok := fresh.plans.fingerprintOf(shapeOf(&req)); ok {
			t.Fatalf("%s's shape outlived its evicted body", req.Model)
		}
	}
	bodies, names, shapes := held(fresh.plans)
	if keys := fresh.plans.keys(); bodies != 1 || names != 1 || shapes != 1 || keys[0] != other.Fingerprint {
		t.Fatalf("after the eviction: %d bodies, %d names, %d shapes, keys %v; want T5_300B's alone", bodies, names, shapes, keys)
	}
}

// blockingWriter is a ResponseWriter whose body writes wait for release:
// a client that has stopped reading.
type blockingWriter struct {
	header  http.Header
	writing chan struct{} // closed at the first Write
	release chan struct{}
	status  int
}

func (w *blockingWriter) Header() http.Header    { return w.header }
func (w *blockingWriter) WriteHeader(status int) { w.status = status }
func (w *blockingWriter) Write(p []byte) (int, error) {
	select {
	case <-w.writing:
	default:
		close(w.writing)
	}
	<-w.release
	return len(p), nil
}

// TestAdmissionSlotReleasedBeforeResponse pins what an admission slot
// bounds: runs holding the kernel worker pool, not requests in flight.
// With one slot, a first request whose client has stopped reading its
// response must not keep a second request from running.
func TestAdmissionSlotReleasedBeforeResponse(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrentRuns = 1
	s, ts := newTestServer(t, cfg)
	mustRun(t, ts, miniatureRequest()) // compile outside the measured part

	body := mustJSON(t, miniatureRequest())
	slow := &blockingWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		s.Handler().ServeHTTP(slow, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	}()
	select {
	case <-slow.writing:
	case <-time.After(30 * time.Second):
		t.Fatal("the first request never reached its response write")
	}

	second := make(chan *RunResponse, 1)
	go func() {
		rr, _, _, err := postRun(ts, miniatureRequest())
		if err != nil {
			t.Errorf("second request: %v", err)
		}
		second <- rr
	}()
	select {
	case rr := <-second:
		if rr != nil && rr.Plan != "hit" {
			t.Errorf("second request plan = %q, want hit", rr.Plan)
		}
	case <-time.After(30 * time.Second):
		t.Error("the second request waited for an admission slot the first still held while writing its response")
	}
	close(slow.release)
	<-slowDone
	if slow.status != http.StatusOK {
		t.Fatalf("the slow request ended with status %d", slow.status)
	}
	if got := svInflight.Value(); got != 0 {
		t.Fatalf("inflight gauge reads %v with nothing running", got)
	}
}

// TestWarmRequestAllocBudget pins what one warm request may allocate,
// end to end through the handler: the benchmark's commonest request
// (GPT_32B, 4 devices, dim 8) once its plan is cached and the arena is
// warm. While every request rebuilt its graph to name it, re-validated
// and re-lowered the program, grew its span buffers by append and had
// them copied per device, per track and once more to sort, that was
// about 770 KiB; with freshly allocated arguments and packs, the span
// stream copied into Result.Trace and again into the recorder's
// RunSpans, about 315; with a fresh engine, fabric, slot tables and span
// slab per run and the attribution's maps, about 119; with the
// attribution report built on every request and a fresh JSON encoder per
// response, about 18. What is left is the result and the trace header,
// plus the request's decoding and the response: the arguments cycle
// through the arena, packs through the kernels' scratch pool, the run's
// tables through the Executable's run contexts, its span slab through
// the recorder's evictions, the efficiency's scratch and the response's
// encoder through their pools, and the report waits for a trace read.
// About 10.7 KiB on a 2-core host, 11.4 there at GOMAXPROCS 8; the
// budget is 1.5 times the former.
func TestWarmRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	// A ring of eight: the warm-up wraps it, so each measured request's
	// span slab is one an eviction handed back, as in a long-running
	// daemon.
	cfg := testConfig()
	cfg.FlightRecorderSize, cfg.FlightKeep = 8, 1
	s, _ := newTestServer(t, cfg)
	body := mustJSON(t, Request{Model: "GPT_32B", Devices: 4, Dim: 8})
	post := func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 20; i++ {
		post()
	}
	const requests = 40
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		post()
	}
	goruntime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / requests
	t.Logf("one warm request: %.1f KiB in %.0f allocations", kib, float64(after.Mallocs-before.Mallocs)/requests)
	if kib > 16 {
		t.Fatalf("one warm request allocates %.1f KiB, budget 16 KiB", kib)
	}
}
