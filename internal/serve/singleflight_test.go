package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"overlap/internal/autotune"
)

// dummyPlan is a plan named name, of a body of its own.
func dummyPlan(name string) *cachedPlan {
	return &cachedPlan{plan: &autotune.Plan{BestName: name, Fingerprint: name}}
}

// TestSingleflightCoalescesIdenticalKeys: N concurrent lookups of one
// uncached fingerprint share a single build; exactly one caller is the
// miss and the others coalesced onto it.
func TestSingleflightCoalescesIdenticalKeys(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	const n = 6
	c0 := svPlanCoalesced.Value()
	var builds atomic.Int64
	build := func() (*cachedPlan, error) {
		builds.Add(1)
		// Hold the compile until every other caller has joined it.
		for deadline := time.Now().Add(10 * time.Second); svPlanCoalesced.Value()-c0 < n-1 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return dummyPlan("shared"), nil
	}

	var wg sync.WaitGroup
	outcomes := make([]planOutcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i], errs[i] = s.getPlan(context.Background(), "fp", build)
		}(i)
	}
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("%d identical lookups ran %d builds, want 1", n, got)
	}
	sources := map[string]int{}
	for i := range outcomes {
		if errs[i] != nil {
			t.Fatalf("lookup %d: %v", i, errs[i])
		}
		if outcomes[i].plan.plan.BestName != "shared" {
			t.Fatalf("lookup %d got the wrong plan", i)
		}
		sources[outcomes[i].source]++
	}
	if sources["miss"] != 1 || sources["coalesced"] != n-1 {
		t.Fatalf("sources = %v, want one miss and %d coalesced", sources, n-1)
	}
}

// TestSingleflightAnswersFromCache: a cached fingerprint is a hit and
// never calls build.
func TestSingleflightAnswersFromCache(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	s.plans.put("fp", dummyPlan("cached"))
	out, err := s.getPlan(context.Background(), "fp",
		func() (*cachedPlan, error) { t.Error("build called on a hit"); return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if out.source != "hit" || out.plan.plan.BestName != "cached" {
		t.Fatalf("outcome = {source %q, plan %q}, want cached hit", out.source, out.plan.plan.BestName)
	}
}

// TestSingleflightFailedBuildNotCached: a failed compile propagates its
// error and stores nothing — the next lookup retries instead of serving
// poison.
func TestSingleflightFailedBuildNotCached(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	var builds atomic.Int64
	failOnce := func() (*cachedPlan, error) {
		if builds.Add(1) == 1 {
			return nil, context.DeadlineExceeded
		}
		return dummyPlan("recovered"), nil
	}

	if _, err := s.getPlan(context.Background(), "fp", failOnce); err == nil {
		t.Fatal("failed build did not propagate its error")
	}
	if plans := s.plans.keys(); len(plans) != 0 {
		t.Fatalf("failed build was cached (%d plans)", len(plans))
	}
	out, err := s.getPlan(context.Background(), "fp", failOnce)
	if err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if out.source != "miss" || out.plan.plan.BestName != "recovered" {
		t.Fatalf("retry outcome = {source %q}, want a fresh miss", out.source)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (fail, then retry)", builds.Load())
	}
}

// TestShutdownWaitsForAbandonedCompile: a compile whose only waiter gave
// up keeps running, and Shutdown returns only once it has landed in the
// plan cache.
func TestShutdownWaitsForAbandonedCompile(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	started, release := make(chan struct{}), make(chan struct{})
	build := func() (*cachedPlan, error) {
		close(started)
		<-release
		return dummyPlan("drained"), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-started; cancel() }()
	if _, err := s.getPlan(ctx, "fp", build); !errors.Is(err, context.Canceled) {
		t.Fatalf("the waiter that gave up got %v, want context.Canceled", err)
	}

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) while a compile was still running", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if cp, ok := s.plans.get("fp"); !ok || cp.plan.BestName != "drained" {
		t.Fatal("Shutdown returned before the abandoned compile was cached")
	}
}

// TestMaxPendingOverload: with MaxPending requests between decode and
// response, one more — on either endpoint that takes a program — is
// answered 503 and counted as overload; once the pending request is
// answered its place is free again.
func TestMaxPendingOverload(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPending = 1
	s, ts := newTestServer(t, cfg)
	mustRun(t, ts, miniatureRequest()) // compile outside the measured part

	body := mustJSON(t, miniatureRequest())
	held := &blockingWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	heldDone := make(chan struct{})
	go func() {
		defer close(heldDone)
		s.Handler().ServeHTTP(held, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	}()
	select {
	case <-held.writing:
	case <-time.After(30 * time.Second):
		t.Fatal("the held request never reached its response write")
	}

	o0 := svOverload.Value()
	for _, endpoint := range []string{"/v1/run", "/v1/compile"} {
		resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s past MaxPending: status %d, want 503", endpoint, resp.StatusCode)
		}
	}
	if d := svOverload.Value() - o0; d != 2 {
		t.Errorf("overload counter moved %v, want 2", d)
	}

	close(held.release)
	<-heldDone
	if held.status != http.StatusOK {
		t.Fatalf("the held request ended with status %d", held.status)
	}
	mustRun(t, ts, miniatureRequest())
}
