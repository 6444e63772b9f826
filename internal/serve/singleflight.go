package serve

import (
	"context"
	"time"
)

// buildFunc compiles the plan for one fingerprint.
type buildFunc func() (*cachedPlan, error)

// flight is one compile in progress. Its waiters block on done; plan and
// err are written before done closes and never after.
type flight struct {
	done chan struct{}
	plan *cachedPlan
	err  error
}

// planOutcome is what one plan acquisition learned: the plan, where it
// came from — "hit" (plan cache), "miss" (this request started the
// compile) or "coalesced" (joined a compile another request started) —
// and how long it took to get.
type planOutcome struct {
	plan   *cachedPlan
	source string
	wait   time.Duration
}

// getPlan answers key from the plan cache, else joins the compile in
// flight for key, else starts it: N simultaneous callers with one
// fingerprint share one build. The compile runs on its own goroutine,
// detached from ctx — a waiter that gives up leaves it running for the
// others and for the cache — and Shutdown waits for it. Only a
// successful compile is cached; a failed one is answered to its waiters
// and the next request retries.
//
// The cache is looked up under flightsMu, and a compile caches its plan
// before it leaves flights, so a request never misses both.
func (s *Server) getPlan(ctx context.Context, key string, build buildFunc) (planOutcome, error) {
	start := time.Now()
	s.flightsMu.Lock()
	if cp, ok := s.plans.get(key); ok {
		s.flightsMu.Unlock()
		svPlanHits.Inc()
		return answered(start, cp, "hit"), nil
	}
	f, inFlight := s.flights[key]
	source := "coalesced"
	if inFlight {
		svPlanCoalesced.Inc()
	} else {
		source = "miss"
		svPlanMisses.Inc()
		svCompiles.Inc()
		f = &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.compiles.Add(1)
		go s.fly(key, f, build)
	}
	s.flightsMu.Unlock()

	select {
	case <-f.done:
	case <-ctx.Done():
		return planOutcome{}, ctx.Err()
	}
	if f.err != nil {
		return planOutcome{}, f.err
	}
	return answered(start, f.plan, source), nil
}

// fly runs one compile, caches its plan if it succeeded, and wakes its
// waiters.
func (s *Server) fly(key string, f *flight, build buildFunc) {
	defer s.compiles.Done()
	f.plan, f.err = build()
	if f.err == nil {
		s.plans.put(key, f.plan)
	}
	s.flightsMu.Lock()
	delete(s.flights, key)
	s.flightsMu.Unlock()
	close(f.done)
}

// answered is the outcome of a lookup that started at start and got cp.
func answered(start time.Time, cp *cachedPlan, source string) planOutcome {
	wait := time.Since(start)
	svPlanSeconds.Observe(wait.Seconds())
	return planOutcome{plan: cp, source: source, wait: wait}
}
