package core

import (
	"fmt"
	"math/rand"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// siteKind enumerates the decomposable site shapes exercised by the
// equivalence suite.
type siteKind int

const (
	siteAGNonContracting siteKind = iota
	siteAGNonContractingRHS
	siteAGContracting
	siteAGBatch
	siteRS
	siteRSRHS
)

var siteKindNames = map[siteKind]string{
	siteAGNonContracting:    "ag-noncontracting",
	siteAGNonContractingRHS: "ag-noncontracting-rhs",
	siteAGContracting:       "ag-contracting",
	siteAGBatch:             "ag-batch",
	siteRS:                  "rs-lhs",
	siteRSRHS:               "rs-rhs",
}

// testCase bundles a buildable site with its per-device arguments.
type testCase struct {
	build func() *hlo.Computation
	args  [][]*tensor.Tensor
	n     int
}

// makeSite constructs a single-site computation over a ring of n
// devices with small randomized contents. groups may come from a 1D
// ring or one axis of a larger mesh.
func makeSite(kind siteKind, groups [][]int, nDevices int, rng *rand.Rand) testCase {
	n := len(groups[0])
	const m, k, nn, g = 4, 6, 5, 1 // per-shard base sizes (batch case scales g)
	perDevice := func(shape ...[]int) [][]*tensor.Tensor {
		out := make([][]*tensor.Tensor, len(shape))
		for p, s := range shape {
			out[p] = make([]*tensor.Tensor, nDevices)
			for d := 0; d < nDevices; d++ {
				out[p][d] = tensor.Rand(rng, s...)
			}
		}
		return out
	}
	switch kind {
	case siteAGNonContracting:
		build := func() *hlo.Computation {
			c := hlo.NewComputation("ag1")
			a := c.Parameter(0, "a", []int{m, k})
			b := c.Parameter(1, "b", []int{k, nn})
			full := c.AllGather(a, 0, groups)
			c.Einsum("mk,kn->mn", full, b)
			return c
		}
		return testCase{build, perDevice([]int{m, k}, []int{k, nn}), nDevices}
	case siteAGNonContractingRHS:
		build := func() *hlo.Computation {
			c := hlo.NewComputation("ag1r")
			a := c.Parameter(0, "a", []int{m, k})
			b := c.Parameter(1, "b", []int{k, nn})
			full := c.AllGather(b, 1, groups)
			c.Einsum("mk,kn->mn", a, full)
			return c
		}
		return testCase{build, perDevice([]int{m, k}, []int{k, nn}), nDevices}
	case siteAGContracting:
		build := func() *hlo.Computation {
			c := hlo.NewComputation("ag2")
			a := c.Parameter(0, "a", []int{m, k})
			b := c.Parameter(1, "b", []int{k * n, nn})
			full := c.AllGather(a, 1, groups) // contracting dim grows
			c.Einsum("mk,kn->mn", full, b)
			return c
		}
		// b must be identical across devices for the decomposition's
		// DynamicSlice to be meaningful — replicate it.
		args := perDevice([]int{m, k})
		bT := tensor.Rand(rng, k*n, nn)
		args = append(args, []*tensor.Tensor{bT})
		return testCase{build, args, nDevices}
	case siteAGBatch:
		build := func() *hlo.Computation {
			c := hlo.NewComputation("ag3")
			a := c.Parameter(0, "a", []int{g, m, k})
			b := c.Parameter(1, "b", []int{g * n, k, nn})
			full := c.AllGather(a, 0, groups)
			c.Einsum("gmk,gkn->gmn", full, b)
			return c
		}
		args := perDevice([]int{g, m, k})
		bT := tensor.Rand(rng, g*n, k, nn)
		args = append(args, []*tensor.Tensor{bT})
		return testCase{build, args, nDevices}
	case siteRS:
		build := func() *hlo.Computation {
			c := hlo.NewComputation("rs")
			a := c.Parameter(0, "a", []int{m * n, k})
			b := c.Parameter(1, "b", []int{k, nn})
			ein := c.Einsum("mk,kn->mn", a, b)
			c.ReduceScatter(ein, 0, groups)
			return c
		}
		return testCase{build, perDevice([]int{m * n, k}, []int{k, nn}), nDevices}
	case siteRSRHS:
		build := func() *hlo.Computation {
			c := hlo.NewComputation("rsr")
			a := c.Parameter(0, "a", []int{m, k})
			b := c.Parameter(1, "b", []int{k, nn * n})
			ein := c.Einsum("mk,kn->mn", a, b)
			c.ReduceScatter(ein, 1, groups)
			return c
		}
		return testCase{build, perDevice([]int{m, k}, []int{k, nn * n}), nDevices}
	}
	panic("unknown site kind")
}

// checkEquivalence asserts that applying the pipeline with the given
// options preserves the program's per-device semantics.
func checkEquivalence(t *testing.T, tc testCase, opts Options, label string) {
	t.Helper()
	base := tc.build()
	ref, err := sim.Interpret(base, tc.n, tc.args)
	if err != nil {
		t.Fatalf("%s: baseline interpret: %v", label, err)
	}
	transformed := tc.build()
	report, err := Apply(transformed, opts)
	if err != nil {
		t.Fatalf("%s: Apply: %v", label, err)
	}
	if report.SitesDecomposed == 0 {
		t.Fatalf("%s: pipeline decomposed nothing (found %d)", label, report.SitesFound)
	}
	got, err := sim.Interpret(transformed, tc.n, tc.args)
	if err != nil {
		t.Fatalf("%s: transformed interpret: %v\n%s", label, err, transformed.Format())
	}
	for d := range ref {
		if !got[d].AllClose(ref[d], 1e-9) {
			t.Fatalf("%s: device %d diverges by %v\n%s", label, d, got[d].MaxDifference(ref[d]), transformed.Format())
		}
	}
}

// forceOpts returns options that decompose unconditionally.
func forceOpts(unroll, bidi bool, sched SchedulerKind, fuse bool) Options {
	return Options{
		Spec: machine.TPUv4(),
		Knobs: Knobs{
			Unroll:                unroll,
			Bidirectional:         bidi,
			UseCostModel:          false,
			Scheduler:             sched,
			FuseAddIntoEinsum:     fuse,
			OverlapFriendlyFusion: true,
		},
	}
}

func ringGroups(n int) [][]int {
	return topology.NewRing(n).AxisGroups(0)
}

func label(kind siteKind, n int, o Options) string {
	return fmt.Sprintf("%s/n=%d/unroll=%v/bidi=%v/sched=%v/fuse=%v",
		siteKindNames[kind], n, o.Unroll, o.Bidirectional, o.Scheduler, o.FuseAddIntoEinsum)
}
