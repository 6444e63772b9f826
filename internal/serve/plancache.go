package serve

import (
	"container/list"
	"slices"
	"sync"

	"overlap/internal/autotune"
	"overlap/internal/hlo"
	"overlap/internal/runtime"
	"overlap/internal/train"
)

// cachedPlan is a compiled plan held hot: the immutable artifact, its
// parsed computation, and the computation compiled for the runtime —
// validated and lowered to its tape once, when the plan was. All three
// are built inside one compile closure, under the singleflight, and
// never written after the entry is published, so every request that
// shares the plan reads them without a lock and runs the one Executable
// concurrently (the 16-client soak pins this under -race). The serve hot path is one map lookup and zero parsing, zero
// compilation, zero lowering.
type cachedPlan struct {
	plan *autotune.Plan
	comp *hlo.Computation
	exe  *runtime.Executable
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
// the same eviction that drops the plan and its Executable. Only the
// program half of the key is remembered — see Server.resolve.
type planCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *planEntry
	entries map[string]*list.Element
	aliases map[requestShape]alias
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

func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		aliases: make(map[requestShape]alias),
	}
}

// get returns the cached plan and marks it most recently used.
func (pc *planCache) get(key string) (*cachedPlan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		return nil, false
	}
	pc.order.MoveToFront(el)
	return el.Value.(*planEntry).val, true
}

// put inserts (or refreshes) a plan, evicting the least recently used
// entry — its aliases with it — when over capacity.
func (pc *planCache) put(key string, val *cachedPlan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		el.Value.(*planEntry).val = val
		pc.order.MoveToFront(el)
		return
	}
	pc.entries[key] = pc.order.PushFront(&planEntry{key: key, val: val})
	for pc.order.Len() > pc.cap {
		oldest := pc.order.Remove(pc.order.Back()).(*planEntry)
		delete(pc.entries, oldest.key)
		for _, shape := range oldest.shapes {
			delete(pc.aliases, shape)
		}
		svPlanEvictions.Inc()
	}
}

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
