package autotune

import (
	"crypto/sha256"
	"slices"
	"sync"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/tensor"
)

// Rankings remembers what stage 1 decided — the ranked candidates,
// before stage 2 writes to them — per program body, so that a compile
// of a program an earlier one differs from only in the computation's
// name skips stage 1. The model layers a server sees often are such
// twins: a layer's graph is its miniature's shape, and the model name
// is the one thing in the text that tells them apart.
//
// A ranking is keyed on everything stage 1 reads: the program's text
// with its name left out (hlo.Computation.UnnamedDigest), the device
// count and the machine spec. No stage reads the name, and no candidate
// label or error carries it (TestRankingIgnoresTheName), so twins rank
// alike to the bit. Only rankings are kept, no programs: a compile that
// reuses one builds the ≤ TopK+1 programs stage 2 executes from its own
// input (search.regrow), and stage 2, the clock, the bitwise checks and
// calibration run as on any compile.
//
// The zero capacity holds nothing. A Rankings is safe for concurrent
// compiles; two twins compiling at once may both run stage 1.
type Rankings struct {
	mu    sync.Mutex
	cap   int
	keys  []rankKey // least recently used first
	byKey map[rankKey][]Candidate
}

// rankKey identifies a ranking: what stage 1 reads of a tune's input.
type rankKey struct {
	body    [sha256.Size]byte
	devices int
	spec    string
}

// NewRankings returns an empty memo that holds at most capacity
// rankings, dropping the least recently used one past it.
func NewRankings(capacity int) *Rankings {
	return &Rankings{cap: max(capacity, 0), byKey: map[rankKey][]Candidate{}}
}

// Compile is CompileKeyed with r's rankings: a program whose body r has
// ranked skips stage 1, and a ranking made here is kept in r. A nil r
// keeps none, so every compile ranks afresh.
func (r *Rankings) Compile(key string, c *hlo.Computation, numDevices int, args [][]*tensor.Tensor, opts Options) (*Plan, error) {
	res, err := tune(key, c, numDevices, args, opts, r)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// Len is how many rankings r holds.
func (r *Rankings) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.keys)
}

func rankKeyOf(c *hlo.Computation, numDevices int, spec machine.Spec) rankKey {
	return rankKey{body: c.UnnamedDigest(), devices: numDevices, spec: spec.Fingerprint()}
}

// get returns a copy of the ranking under k, for stage 2 to write to.
func (r *Rankings) get(k rankKey) ([]Candidate, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ranked, ok := r.byKey[k]
	if !ok {
		return nil, false
	}
	r.touch(k)
	return slices.Clone(ranked), true
}

// put keeps a copy of ranked under k.
func (r *Rankings) put(k rankKey, ranked []Candidate) {
	if r.cap == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byKey[k]; !ok {
		r.keys = append(r.keys, k)
	}
	r.byKey[k] = slices.Clone(ranked)
	r.touch(k)
	if len(r.keys) > r.cap {
		delete(r.byKey, r.keys[0])
		r.keys = slices.Delete(r.keys, 0, 1)
	}
}

// touch moves k, which r holds, to the most recently used end.
func (r *Rankings) touch(k rankKey) {
	i := slices.Index(r.keys, k)
	r.keys = append(slices.Delete(r.keys, i, i+1), k)
}
