package autotune

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/sim"
)

// search is the state of one tune's stage 1: the tree of programs the
// candidates share, each node built the first time a candidate's path
// reaches it, and what ranking has learned about each distinct program
// so far. It lives for one Tune call; a Result keeps none of its graphs.
type search struct {
	numDevices int
	spec       machine.Spec

	// base is the untransformed input, the baseline candidate's program;
	// root is what every other candidate transforms: base itself, or an
	// un-stamped copy when the input already carries split-K factors —
	// the stamp stage overwrites every einsum's factor, so none of the
	// input's may leak into a scheduled node's text.
	base, root *node
	baseKey    programKey

	memo map[memoKey]*node
	seen map[programKey]*Candidate
	// landed maps each unique candidate's name to the node it was
	// ranked on, for stage 2 to materialise.
	landed map[string]*node
	// programs holds the materialised program of each executed
	// candidate, by name, for calibration to re-simulate.
	programs map[string]*hlo.Computation
}

// memoKey identifies one node: the node whose program it was built
// from, the stage that built it, and that stage's key on that program.
type memoKey struct {
	parent *node
	stage  int
	knobs  core.Knobs
}

// programKey identifies a candidate's final text without building it:
// the digest of its scheduled node's (unstamped) text and the factor the
// stamp stage would print on its einsums — 0 when it prints nothing.
type programKey struct {
	digest [sha256.Size]byte
	factor int
}

// node is one memoised program: the input after the stages on its path.
// Once built it is shared by every candidate and child that reaches it
// and its graph is never rewritten — every stage that rewrites runs on a
// Clone.
//
// The order stage rewrites nothing: it only permutes. So an order node
// has no program of its own. It shares its async parent's and keeps its
// schedule as instruction IDs, which whoever reads the program in that
// schedule — ranking here, a Clone in materialise — applies first. The
// async node keeps its own order the same way, for its order kids to
// reset the shared program to.
type node struct {
	c     *hlo.Computation
	order []int // order and async nodes only
	// err is the failure of the stage that should have built this node;
	// no candidate that reaches it goes further, and nothing below it is
	// built.
	err string
	// on caches each stage up to order as it acts on c (core.Stage.On),
	// by stage index; a zero Name is not yet asked for.
	on [core.StageStamp]core.Stage

	// What ranking learned when the first candidate landed here:
	inspected bool
	rankErr   string // Verify failure, or later the Simulate failure
	digest    [sha256.Size]byte
	einsum    bool // some instruction, bodies included, is an einsum
	simulated bool
	predicted sim.Breakdown
}

func newSearch(c *hlo.Computation, numDevices int, spec machine.Spec) *search {
	s := &search{
		numDevices: numDevices,
		spec:       spec,
		base:       &node{c: c},
		memo:       map[memoKey]*node{},
		seen:       map[programKey]*Candidate{},
		landed:     map[string]*node{},
		programs:   map[string]*hlo.Computation{},
	}
	s.root = s.base

	// The baseline is never run through Apply, so its text keeps
	// whatever factors c came stamped with: uniform ones key like a
	// candidate's, mixed ones (which no candidate can print) key on the
	// stamped text itself.
	factor, uniform, stamped, first := 0, true, false, true
	c.Walk(func(in *hlo.Instruction) {
		if in.Op != hlo.OpEinsum {
			return
		}
		if f := printedFactor(in.SplitK); first {
			factor, first = f, false
		} else if f != factor {
			uniform = false
		}
		stamped = stamped || in.SplitK != 0
	})
	if stamped {
		plain := c.Clone()
		_ = stampStage().Run(plain, core.Options{}, &core.Report{}) // stamping cannot fail
		s.root = &node{c: plain}
	}
	if uniform {
		s.baseKey = programKey{digest: s.root.c.TextDigest(), factor: factor}
	} else {
		s.baseKey = programKey{digest: c.TextDigest(), factor: -1}
	}
	return s
}

func stampStage() core.Stage { return core.Stages()[core.StageStamp] }

// stage1 ranks the candidates. grow walks each down the tree and
// inspects the node it lands on. Then a pass in enumeration order —
// which is the dedup and tie-break order: the first candidate to
// produce a program is its unique representative, later ones its
// duplicates — keys each candidate, and the node of each key's first
// candidate is simulated, on workers. A last pass in the same order
// reads what the nodes learned.
func (s *search) stage1(cands []*Candidate) {
	at := s.grow(cands)
	keys := make([]programKey, len(cands))
	printed := map[programKey]bool{}
	var printers []*node
	for i, cand := range cands {
		// The baseline is not verified here: Apply, whose tail the
		// inspection stands in for, never sees it.
		if cand.Baseline {
			at[i], keys[i] = s.base, s.baseKey
		} else if keys[i], cand.Err = at[i].key(cand.Opts); cand.Err != "" {
			at[i] = nil
			continue
		}
		if !printed[keys[i]] {
			printed[keys[i]] = true
			printers = append(printers, at[i])
		}
	}
	s.simulate(printers)
	for i, cand := range cands {
		n, key := at[i], keys[i]
		if n == nil {
			continue
		}
		if first, dup := s.seen[key]; dup {
			cand.DuplicateOf = first.Name
			cand.Predicted = first.Predicted
			continue
		}
		// The simulator never reads the stamped factor, so every
		// split-K variant of a node shares its one simulation — and its
		// one failure. A node is simulated only for a program no earlier
		// candidate printed: above, for each program's first printer,
		// and here for the next one if that first one failed.
		n.simulate(s.numDevices, s.spec)
		if n.rankErr != "" {
			cand.Err = n.rankErr
			continue
		}
		s.seen[key] = cand
		s.landed[cand.Name] = n
		cand.unique = true
		cand.Predicted = n.predicted
	}
}

// key is the dedup key of a candidate under o that landed on n, or
// what failed before it could be ranked: the stage that should have
// built n, n's inspection, or o's split-K factor on n's program.
func (n *node) key(o core.Options) (programKey, string) {
	if n.err != "" {
		return programKey{}, n.err
	}
	if n.rankErr != "" {
		return programKey{}, n.rankErr
	}
	key := programKey{digest: n.digest}
	if n.einsum {
		if err := n.c.VerifySplitK(o.KernelSplitK); err != nil {
			return programKey{}, err.Error()
		}
		key.factor = printedFactor(o.KernelSplitK)
	}
	return key, ""
}

// grow walks every candidate down the tree, stage by stage, and returns
// the node each lands on, inspected. At node n a stage is asked as it
// acts on n's program (core.Stage.On): where it is the identity under
// the candidate's options it hands n on, and otherwise the next node is
// n's child memoised on (n, stage, the stage's key on n's program),
// built the first time a candidate needs it — so parents are built
// first by construction, and a knob On drops for n's program makes no
// second child. A failed node ends every path that reaches it.
//
// Stage 1 is most of a compile, and nearly all of it is building and
// inspecting this tree, so the tree is built on min(GOMAXPROCS,
// subtrees) workers: on the 13 programs of the daemon's 4-device warm
// mix, on a 2-core host at GOMAXPROCS 2, stage 1 took 202–221 ms of
// each 266–310 ms pass of Tune (71–79%). A server pays it once per
// program body (Key leaves the name out). Here, serially, each candidate is
// walked through the pre stage, whose node (one at most) every subtree
// shares, and told which node the decompose stage would take it to: the
// top of its subtree, built or not, of which a layer has 9. One worker
// owns each subtree. It builds the top — a Clone of the pre node, which
// every worker only reads: its decompose On was asked here — and the
// fuse, async and order nodes below, and inspects every node a candidate
// lands on there. No other goroutine writes those nodes' programs,
// orders, On caches or inspection fields; an async node and its order
// kids, which share one program, are always in one subtree. Where the
// decompose stage is the identity the top is the pre node itself, and
// its owner alone writes the pre node's later On entries and inspection.
// A worker's new nodes go into its subtree's memo, and into the search's
// once every worker is done.
func (s *search) grow(cands []*Candidate) []*node {
	at := make([]*node, len(cands))
	var subtrees []*subtree
	of := map[memoKey]*subtree{}
	for i, cand := range cands {
		if cand.Baseline {
			continue
		}
		pre := s.walk(s.memo, s.root, cand.Opts, core.StagePre, core.StageDecompose)
		top := memoKey{parent: pre, stage: -1} // the pre node itself
		if pre.err == "" {
			if stage := pre.stageOn(core.StageDecompose); !stage.Identity(cand.Opts) {
				top = memoKey{parent: pre, stage: core.StageDecompose, knobs: stage.Key(cand.Opts)}
			}
		}
		t := of[top]
		if t == nil {
			t = &subtree{pre: pre, memo: map[memoKey]*node{}}
			of[top] = t
			subtrees = append(subtrees, t)
		}
		t.cands = append(t.cands, i)
	}
	each(len(subtrees), func(k int) {
		t := subtrees[k]
		for _, i := range t.cands {
			n := s.walk(t.memo, t.pre, cands[i].Opts, core.StageDecompose, core.StageStamp)
			n.inspect()
			at[i] = n
		}
	})
	for _, t := range subtrees {
		maps.Copy(s.memo, t.memo)
	}
	return at
}

// subtree is one worker's share of grow: the candidates the decompose
// stage takes from the pre node to one top, and the nodes built from
// the top down.
type subtree struct {
	pre   *node
	cands []int
	memo  map[memoKey]*node
}

// walk takes n down stages [from, to) under o and returns the node it
// reaches. A node not in the search's memo is found in, or built into,
// memo.
func (s *search) walk(memo map[memoKey]*node, n *node, o core.Options, from, to int) *node {
	for st := from; st < to && n.err == ""; st++ {
		stage := n.stageOn(st)
		if stage.Identity(o) {
			continue
		}
		key := memoKey{parent: n, stage: st, knobs: stage.Key(o)}
		child, ok := s.memo[key]
		if !ok {
			child, ok = memo[key]
		}
		if !ok {
			child = n.child(st, stage, o)
			memo[key] = child
		}
		n = child
	}
	return n
}

// simulate prices each node's program in its schedule, on workers. Nodes
// that share a program — an async node and its order kids, each of
// which puts it in its own schedule first — go to one worker, in turn.
func (s *search) simulate(nodes []*node) {
	var groups [][]*node
	of := map[*hlo.Computation]int{}
	for _, n := range nodes {
		g, ok := of[n.c]
		if !ok {
			g = len(groups)
			of[n.c] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], n)
	}
	each(len(groups), func(g int) {
		for _, n := range groups[g] {
			n.simulate(s.numDevices, s.spec)
		}
	})
}

// each runs f(0), …, f(n-1) on min(GOMAXPROCS, n) workers, each taking
// the next index until none is left, and returns once every call has.
// It is the one place stage 1 starts goroutines.
func each(n int, f func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// stageOn returns stage st as it acts on n's program, asked once.
func (n *node) stageOn(st int) core.Stage {
	if n.on[st].Name == "" {
		n.on[st] = core.Stages()[st].On(n.c)
	}
	return n.on[st]
}

// child builds the node stage st makes of n's program under o: a Clone
// with the stage run on it, or for the order stage n's own program and
// the scheduler's order of it. That order is taken against the async
// order, which an inspected sibling may have permuted away.
func (n *node) child(st int, stage core.Stage, o core.Options) *node {
	if st == core.StageOrder {
		kid := &node{}
		if err := n.schedule(n.c); err != nil {
			kid.err = err.Error()
			return kid
		}
		kid.c = n.c
		order := core.Order(n.c, o)
		kid.order = make([]int, len(order))
		for i, in := range order {
			kid.order[i] = in.ID
		}
		return kid
	}
	kid := &node{}
	c := n.c.Clone()
	if err := stage.Run(c, o, &core.Report{}); err != nil {
		kid.err = err.Error()
		return kid
	}
	kid.c = c
	if st == core.StageAsync {
		kid.order = make([]int, c.NumInstructions())
		for i := range kid.order {
			kid.order[i] = c.At(i).ID
		}
	}
	return kid
}

// schedule puts the node's schedule on c — n.c, or a Clone of it. For
// any node but an order or async node that is the order c is in
// already.
func (n *node) schedule(c *hlo.Computation) error {
	if n.order == nil {
		return nil
	}
	if err := c.SetScheduleIDs(n.order); err != nil {
		return fmt.Errorf("core: scheduling: %w", err) // as the order stage words it
	}
	return nil
}

// simulate prices n's program in n's schedule, once; a failure is
// n's rankErr.
func (n *node) simulate(numDevices int, spec machine.Spec) {
	if n.simulated {
		return
	}
	n.simulated = true
	if err := n.schedule(n.c); err != nil {
		n.rankErr = err.Error()
	} else if n.predicted, err = sim.Simulate(n.c, numDevices, spec); err != nil {
		n.rankErr = err.Error()
	}
}

// inspect does, once per node a candidate lands on, what Apply's tail
// and the dedup key need: Verify, the text digest, and whether there is
// an einsum for a factor to print on.
func (n *node) inspect() {
	if n.inspected || n.err != "" {
		return
	}
	n.inspected = true
	if err := n.schedule(n.c); err != nil {
		n.rankErr = err.Error()
		return
	}
	if err := n.c.Verify(); err != nil {
		n.rankErr = err.Error()
		return
	}
	n.digest = n.c.TextDigest()
	n.c.Walk(func(in *hlo.Instruction) { n.einsum = n.einsum || in.Op == hlo.OpEinsum })
}

// releaseTree drops every memoised program once the ones to execute
// have been materialised, so the executions and the calibration that
// follow do not hold a whole search's graphs live.
func (s *search) releaseTree() { s.memo, s.landed = nil, nil }

// printedFactor is the split-K factor as the program text shows it:
// below 2 the printer writes nothing.
func printedFactor(k int) int {
	if k < 2 {
		return 0
	}
	return k
}

// materialise builds the program a unique candidate stands for — a
// clone of its node in the node's schedule, with the stamp stage run
// and the whole verified, or a clone of the input for the baseline —
// and keeps it for calibration.
func (s *search) materialise(cand *Candidate) (*hlo.Computation, error) {
	n := s.landed[cand.Name]
	prog := n.c.Clone()
	if !cand.Baseline {
		if err := n.schedule(prog); err != nil {
			return nil, err
		}
		if err := stampStage().Run(prog, cand.Opts, &core.Report{}); err != nil {
			return nil, err
		}
		if err := prog.Verify(); err != nil {
			return nil, err
		}
	}
	s.programs[cand.Name] = prog
	return prog, nil
}
