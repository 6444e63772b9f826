package serve

import (
	"container/list"
	"context"
	"net/http"
	"slices"
	"sync"
	"time"

	"overlap/internal/autotune"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/runtime"
)

// cachedPlan is a compiled plan held hot, exactly as the decision memo's
// Compile returned it: the immutable artifact, its program as a graph,
// and that graph's Executable — the pair the compile executed and
// checked (stage 2's winner, or a twin's one checked run), or, for a
// plan from the disk tier, the program its decode parsed, lowered
// once. Nothing here parses or lowers a plan again. The entry is never
// written after it is published, so every request that shares the plan
// reads it without a lock and runs the one Executable concurrently (the
// 16-client soak pins this under -race). The serve hot path is one map
// lookup and zero parsing, zero compilation, zero lowering.
type cachedPlan struct {
	plan *autotune.Plan
	comp *hlo.Computation
	exe  *runtime.Executable
}

// planCache is a fixed-capacity LRU of compiled plans keyed by the
// autotune fingerprint: the plan store's memory tier, above autotune's
// directory of plan files. The disk tier spares the search; this one
// also spares the parse and the lowering. A run failure never evicts
// anything — plans are pure functions of their fingerprint, so a failed
// run says nothing about the plan (see the poisoning regression test).
//
// Each entry also remembers the request shapes that resolved to it, with
// the ProgramFingerprint of the graph they build, so a known shape names
// its plan without rebuilding that graph. The aliases are part of their
// entry: they count against no capacity of their own and are dropped by
// the same eviction that drops the plan and its Executable. The host
// part of the key is never remembered — see Server.resolve.
//
// The same mutex guards the compiles in flight: a lookup finds a plan
// or joins its compile in one critical section, and a compile caches its
// plan and leaves in another, so no request sees neither.
type planCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *planEntry
	entries map[string]*list.Element
	aliases map[requestShape]alias
	flights map[string]*flight // the compile in flight per fingerprint
}

type planEntry struct {
	key    string
	val    *cachedPlan
	shapes []requestShape
}

// alias is one remembered request shape: the fingerprint of its program
// and the entry it lives and dies with.
type alias struct {
	fingerprint string
	owner       *planEntry
}

// flight is one compile in progress. Its waiters block on done; plan and
// err are written before done closes and never after.
type flight struct {
	done chan struct{}
	plan *cachedPlan
	err  error
}

func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		aliases: make(map[requestShape]alias),
		flights: make(map[string]*flight),
	}
}

// get returns the cached plan and marks it most recently used.
func (pc *planCache) get(key string) (*cachedPlan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lookup(key)
}

// lookup is get with pc.mu held.
func (pc *planCache) lookup(key string) (*cachedPlan, bool) {
	el, ok := pc.entries[key]
	if !ok {
		return nil, false
	}
	pc.order.MoveToFront(el)
	return el.Value.(*planEntry).val, true
}

// join returns key's cached plan, else the compile in flight for key,
// else a new flight for the caller to fly (started).
func (pc *planCache) join(key string) (cp *cachedPlan, f *flight, started bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if cp, ok := pc.lookup(key); ok {
		return cp, nil, false
	}
	if f, ok := pc.flights[key]; ok {
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	pc.flights[key] = f
	return nil, f, true
}

// land ends key's flight, caching its plan if the compile succeeded and
// evicting the least recently used entry — its aliases with it — when
// over capacity.
func (pc *planCache) land(key string, f *flight) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	delete(pc.flights, key)
	if f.err != nil {
		return
	}
	if el, ok := pc.entries[key]; ok {
		el.Value.(*planEntry).val = f.plan
		pc.order.MoveToFront(el)
		return
	}
	pc.entries[key] = pc.order.PushFront(&planEntry{key: key, val: f.plan})
	for pc.order.Len() > pc.cap {
		oldest := pc.order.Remove(pc.order.Back()).(*planEntry)
		delete(pc.entries, oldest.key)
		for _, shape := range oldest.shapes {
			delete(pc.aliases, shape)
		}
		svPlanEvictions.Inc()
	}
}

// put inserts (or refreshes) a plan as a compile of it landing would.
func (pc *planCache) put(key string, val *cachedPlan) { pc.land(key, &flight{plan: val}) }

// fingerprintOf returns the ProgramFingerprint remembered for a request
// shape, if a cached plan still vouches for it.
func (pc *planCache) fingerprintOf(shape requestShape) (string, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	a, ok := pc.aliases[shape]
	return a.fingerprint, ok
}

// remember records that a request of this shape, whose graph has this
// ProgramFingerprint, resolved to the plan cached under key. A shape
// has one owner, the entry it resolved to last; if that plan is already
// gone there is nothing to attach the alias to and it is not kept.
func (pc *planCache) remember(key string, shape requestShape, fingerprint string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		return
	}
	entry := el.Value.(*planEntry)
	if a, ok := pc.aliases[shape]; ok {
		if a.owner == entry {
			return
		}
		a.owner.shapes = slices.DeleteFunc(a.owner.shapes, func(s requestShape) bool { return s == shape })
	}
	entry.shapes = append(entry.shapes, shape)
	pc.aliases[shape] = alias{fingerprint: fingerprint, owner: entry}
}

// keys returns the cached fingerprints, most recently used first, read
// under one lock: the number of cached plans is its length.
func (pc *planCache) keys() []string {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]string, 0, pc.order.Len())
	for el := pc.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*planEntry).key)
	}
	return out
}

// buildFunc compiles the plan for one fingerprint.
type buildFunc func() (*cachedPlan, error)

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
func (s *Server) getPlan(ctx context.Context, key string, build buildFunc) (planOutcome, error) {
	start := time.Now()
	cp, f, started := s.plans.join(key)
	source := "hit"
	switch {
	case cp != nil:
		svPlanHits.Inc()
	case started:
		source = "miss"
		svPlanMisses.Inc()
		svCompiles.Inc()
		s.compiles.Add(1)
		go func() {
			defer s.compiles.Done()
			f.plan, f.err = build()
			s.plans.land(key, f)
			close(f.done)
		}()
	default:
		source = "coalesced"
		svPlanCoalesced.Inc()
	}
	if cp == nil {
		select {
		case <-f.done:
		case <-ctx.Done():
			return planOutcome{}, ctx.Err()
		}
		if f.err != nil {
			return planOutcome{}, f.err
		}
		cp = f.plan
	}
	wait := time.Since(start)
	svPlanSeconds.Observe(wait.Seconds())
	return planOutcome{plan: cp, source: source, wait: wait}, nil
}

// acquirePlan gets the request's plan through getPlan: the plan cache
// answers warm requests with zero compilation, identical fingerprints
// coalesce onto one compile. The compile closure runs at most once per
// fingerprint at a time: it builds the graph if the request did not,
// compiles through the server's decision memo and caches what that
// returns — the plan, its program and the Executable the compile
// checked it on. A program whose body an earlier compile decided —
// another model's name on the same layer — is not searched again: its
// compile executes and checks the body's winner once under its own
// name. A model request that got its plan is remembered by shape, so
// the next one of that shape resolves without its graph.
func (s *Server) acquirePlan(ctx context.Context, req *Request, prog *program) (planOutcome, error) {
	devices, seed := req.Devices, req.Seed
	out, err := s.getPlan(ctx, prog.key, func() (*cachedPlan, error) {
		comp := prog.comp
		if comp == nil {
			// A known shape whose plan is not cached under this key: the
			// host part of the key moved since the shape was remembered,
			// or the plan was evicted since resolve looked.
			c, err := s.buildGraph(prog.shape)
			if err != nil {
				return nil, err
			}
			comp = c
		}
		plan, exec, exe, err := s.decisions.Compile(prog.key, comp, devices, Args(comp, seed), autotune.Options{
			Spec:         machine.TPUv4(),
			TopK:         s.cfg.TuneTopK,
			CachePath:    s.cfg.CachePath,
			DisableCache: s.cfg.DisableDiskCache,
			Calibrate:    true,
		})
		if err != nil {
			return nil, err
		}
		return &cachedPlan{plan: plan, comp: exec, exe: exe}, nil
	})
	if err == nil && prog.shape.model != "" {
		s.plans.remember(prog.key, prog.shape, prog.fingerprint)
	}
	return out, err
}

// handleCompile answers POST /v1/compile with the acquired (or built)
// plan: the serialized artifact itself — the same bytes overlap tune
// -plan-out writes and overlap run -plan-in executes.
func (s *Server) handleCompile(w http.ResponseWriter, p planned) {
	data, err := p.out.plan.plan.EncodeJSON()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("X-Overlap-Plan", p.out.source)
	writeBytes(w, data)
}

// handlePlans serves GET /v1/plans: the cached fingerprints, hottest
// first, and their count — both from one snapshot, so a compile or an
// eviction landing meanwhile cannot make them disagree.
func (s *Server) handlePlans(w http.ResponseWriter, _ *http.Request) {
	plans := s.plans.keys()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"plans": plans,
		"size":  len(plans),
	})
}
