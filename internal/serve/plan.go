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

// cachedPlan is a compiled plan held hot, exactly as
// autotune.CompileKeyed returned it: the immutable artifact, its
// program as a graph, and that graph's Executable — the pair the
// compile executed and checked (stage 2's winner), or, for a plan from
// the disk tier, the program its decode parsed, lowered once. Nothing
// here parses or lowers a plan again. The entry is never written after
// it is published, so every request that shares the plan — under any
// name of its body — reads it without a lock and runs the one
// Executable concurrently (the 16-client soak pins this under -race).
// The serve hot path is one map lookup and zero parsing, zero
// compilation, zero lowering.
type cachedPlan struct {
	plan *autotune.Plan
	comp *hlo.Computation
	exe  *runtime.Executable
}

// planCache is the plan store's memory tier, above autotune's directory
// of plan files: a fixed-capacity LRU of compiled plans, one entry per
// program body, keyed by autotune.Key (the plan's Fingerprint). The disk
// tier spares the search; this one also spares the parse and the
// lowering. A run failure never evicts anything — plans are pure
// functions of their key, so a failed run says nothing about the plan
// (see the poisoning regression test).
//
// A request's key digests its program's text with the computation's
// name (Server.resolve), so each entry keeps two kinds of alias: the request keys that resolved to it,
// and the request shapes that did, with the name-bearing fingerprint of
// the graph they build, so a known shape names its plan without
// rebuilding that graph. Aliases are part of their entry: they count
// against no capacity of their own and are dropped by the same eviction
// that drops the plan and its Executable. The host part of a key is
// never remembered — see Server.resolve.
//
// The same mutex guards the compiles in flight, one per request key: a
// lookup finds a plan or joins its compile in one critical section, and
// a compile lands its plan and leaves in another, so no request sees
// neither. A body's first landing wins: a compile that lands a body the
// cache already holds adopts the held entry, so every name of a body
// serves one plan.
type planCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recent; values are *planEntry
	bodies  map[string]*list.Element // by autotune.Key
	names   map[string]*list.Element // by request key
	aliases map[requestShape]alias
	flights map[string]*flight // the compile in flight per request key
}

type planEntry struct {
	val    *cachedPlan
	names  []string
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
		bodies:  make(map[string]*list.Element),
		names:   make(map[string]*list.Element),
		aliases: make(map[requestShape]alias),
		flights: make(map[string]*flight),
	}
}

// get returns the plan a request key names and marks it most recently
// used.
func (pc *planCache) get(name string) (*cachedPlan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lookup(name)
}

// lookup is get with pc.mu held.
func (pc *planCache) lookup(name string) (*cachedPlan, bool) {
	el, ok := pc.names[name]
	if !ok {
		return nil, false
	}
	pc.order.MoveToFront(el)
	return el.Value.(*planEntry).val, true
}

// held returns the plan held for a body, named by its autotune.Key.
func (pc *planCache) held(body string) (*cachedPlan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.bodies[body]
	if !ok {
		return nil, false
	}
	return el.Value.(*planEntry).val, true
}

// join returns the plan name resolves to, else the compile in flight
// for name, else a new flight for the caller to fly (started).
func (pc *planCache) join(name string) (cp *cachedPlan, f *flight, started bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if cp, ok := pc.lookup(name); ok {
		return cp, nil, false
	}
	if f, ok := pc.flights[name]; ok {
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	pc.flights[name] = f
	return nil, f, true
}

// land ends name's flight. A compile that succeeded leaves name an
// alias of its plan's body: of the entry already held for the body,
// whose plan the flight then answers with, else of a new entry, which
// evicts the least recently used one — its aliases with it — when over
// capacity.
func (pc *planCache) land(name string, f *flight) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	delete(pc.flights, name)
	if f.err != nil {
		return
	}
	body := f.plan.plan.Fingerprint
	el, ok := pc.bodies[body]
	if ok {
		f.plan = el.Value.(*planEntry).val
		pc.order.MoveToFront(el)
	} else {
		el = pc.order.PushFront(&planEntry{val: f.plan})
		pc.bodies[body] = el
	}
	entry := el.Value.(*planEntry)
	entry.names = append(entry.names, name)
	pc.names[name] = el
	for pc.order.Len() > pc.cap {
		oldest := pc.order.Remove(pc.order.Back()).(*planEntry)
		delete(pc.bodies, oldest.val.plan.Fingerprint)
		for _, n := range oldest.names {
			delete(pc.names, n)
		}
		for _, shape := range oldest.shapes {
			delete(pc.aliases, shape)
		}
		svPlanEvictions.Inc()
	}
}

// put lands a plan under a request key as a compile of it would.
func (pc *planCache) put(name string, val *cachedPlan) { pc.land(name, &flight{plan: val}) }

// fingerprintOf returns the fingerprint remembered for a request shape,
// if a cached plan still vouches for it.
func (pc *planCache) fingerprintOf(shape requestShape) (string, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	a, ok := pc.aliases[shape]
	return a.fingerprint, ok
}

// remember records that a request of this shape, whose graph has this
// fingerprint, resolved to the plan cached under request key name. A
// shape has one owner, the entry it resolved to last; if that plan is
// already gone there is nothing to attach the alias to and it is not
// kept.
func (pc *planCache) remember(name string, shape requestShape, fingerprint string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.names[name]
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

// keys returns the request keys the cache answers, those of the most
// recently used body first, read under one lock: how many it answers is
// its length.
func (pc *planCache) keys() []string {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]string, 0, len(pc.names))
	for el := pc.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*planEntry).names...)
	}
	return out
}

// buildFunc compiles the plan for one request key.
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
// request key share one build. The compile runs on its own goroutine,
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
// answers warm requests with zero compilation, identical request keys
// coalesce onto one compile. The compile closure runs at most once per
// request key at a time: it builds the graph if the request did not and
// keys it by its body. A body the cache holds — another model's name on
// the same layer — answers as it is: one lookup, and the request key
// becomes its alias. Any other body compiles through
// autotune.CompileKeyed, and the cache keeps what that returns — the
// plan, its program and the Executable the compile checked it on. A
// model request that got its plan is remembered by shape, so the next
// one of that shape resolves without its graph.
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
		body := s.specKey.Key(autotune.ProgramFingerprint(comp), devices)
		if cp, ok := s.plans.held(body); ok {
			return cp, nil
		}
		plan, exec, exe, err := autotune.CompileKeyed(body, comp, devices, Args(comp, seed), autotune.Options{
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

// handlePlans serves GET /v1/plans: the request keys the plan cache
// answers, those of the hottest body first, and their count — both from
// one snapshot, so a compile or an eviction landing meanwhile cannot
// make them disagree.
func (s *Server) handlePlans(w http.ResponseWriter, _ *http.Request) {
	plans := s.plans.keys()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"plans": plans,
		"size":  len(plans),
	})
}
