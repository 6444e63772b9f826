package autotune

import (
	"crypto/sha256"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/sim"
)

// search is the state of one tune's stage 1: the tree of programs the
// candidates share, memoised on core's stage prefix keys, and what
// ranking has learned about each distinct program so far. It lives for
// one Tune call; a Result keeps none of its graphs.
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

// memoKey identifies one node: the stage that produced it and the knobs
// every stage up to it read.
type memoKey struct {
	stage int
	knobs core.Options
}

// programKey identifies a candidate's final text without building it:
// the digest of its scheduled node's (unstamped) text and the factor the
// stamp stage would print on its einsums — 0 when it prints nothing.
type programKey struct {
	digest [sha256.Size]byte
	factor int
}

// node is one memoised program: the input after a prefix of stages. It
// is shared by every candidate and child that reaches it and is never
// mutated once built; every stage runs on a Clone.
type node struct {
	c *hlo.Computation
	// err is the failure of the stage that should have built this node;
	// every descendant candidate inherits it and nothing below is built.
	err string

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

// stage1 ranks the candidates, in enumeration order — which is the
// dedup and tie-break order: the first candidate to produce a program
// is its unique representative, later ones its duplicates.
func (s *search) stage1(cands []*Candidate) {
	for _, cand := range cands {
		// The baseline is not verified here: Apply, whose tail the
		// inspection stands in for, never sees it.
		n, key := s.base, s.baseKey
		if !cand.Baseline {
			n = s.scheduled(cand.Opts)
			if n.err != "" {
				cand.Err = n.err
				continue
			}
			if n.inspect(); n.rankErr != "" {
				cand.Err = n.rankErr
				continue
			}
			key = programKey{digest: n.digest}
			if n.einsum {
				if err := n.c.VerifySplitK(cand.Opts.KernelSplitK); err != nil {
					cand.Err = err.Error()
					continue
				}
				key.factor = printedFactor(cand.Opts.KernelSplitK)
			}
		}
		if first, dup := s.seen[key]; dup {
			cand.DuplicateOf = first.Name
			cand.Predicted = first.Predicted
			continue
		}
		// The simulator never reads the stamped factor, so every
		// split-K variant of a node shares its one simulation — and its
		// one failure.
		if !n.simulated {
			n.simulated = true
			bd, err := sim.Simulate(n.c, s.numDevices, s.spec)
			if err != nil {
				n.rankErr = err.Error()
			}
			n.predicted = bd
		}
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

// scheduled returns the node holding the program as the schedule stage
// leaves it under o, building whatever part of the path from the root
// is not memoised yet.
func (s *search) scheduled(o core.Options) *node {
	n := s.root
	for i, st := range core.Stages()[:core.StageStamp] {
		if st.Identity(o) {
			continue
		}
		key := memoKey{stage: i, knobs: core.PrefixKey(i, o)}
		child, ok := s.memo[key]
		if !ok {
			child = n.then(st, o)
			s.memo[key] = child
		}
		n = child
	}
	return n
}

// then builds the child of n under one stage. A failed node is its own
// child: the error reaches every descendant and nothing is cloned.
func (n *node) then(st core.Stage, o core.Options) *node {
	if n.err != "" {
		return n
	}
	c := n.c.Clone()
	if err := st.Run(c, o, &core.Report{}); err != nil {
		return &node{err: err.Error()}
	}
	return &node{c: c}
}

// inspect does, once per node a candidate lands on, what Apply's tail
// and the dedup key need: Verify, the text digest, and whether there is
// an einsum for a factor to print on.
func (n *node) inspect() {
	if n.inspected {
		return
	}
	n.inspected = true
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
// clone of its node with the stamp stage run and the whole verified, or
// a clone of the input for the baseline — and keeps it for calibration.
func (s *search) materialise(cand *Candidate) (*hlo.Computation, error) {
	prog := s.landed[cand.Name].c.Clone()
	if !cand.Baseline {
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
