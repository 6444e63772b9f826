package experiments

import (
	"fmt"
	"math/rand"
	"text/tabwriter"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// wallclockParams sizes the measured site. The defaults make one run
// large enough (hundreds of MFLOPs, a 16 MiB packed weight) that the
// kernel-engine differences dominate scheduling noise; the test uses a
// miniature configuration.
type wallclockParams struct {
	devices int
	m, k, n int // per-shard partial-einsum shape
	reps    int // measured repetitions (plus one warm-up)
	splitK  int // factor for the split-K variant
}

func defaultWallclockParams() wallclockParams {
	return wallclockParams{devices: 4, m: 4, k: 8192, n: 256, reps: 3, splitK: 4}
}

// Wallclock measures the kernel engine on real hardware rather than in
// the simulator: one decomposed AllGather/einsum site whose weight is
// stored transposed (so every partial einsum packs its rhs) executed by
// the concurrent runtime, comparing the rolled loop, the expanded form,
// expanded with the pack cache disabled, and expanded with split-K. It
// reports measured step time — wall-clock, host-dependent, regenerated
// with the benchmark files rather than pinned by tests.
func Wallclock(spec machine.Spec) (string, []float64, error) {
	return wallclock(spec, defaultWallclockParams())
}

func wallclock(spec machine.Spec, p wallclockParams) (string, []float64, error) {
	build := func() *hlo.Computation {
		groups := topology.NewRing(p.devices).AxisGroups(0)
		c := hlo.NewComputation("wallclock")
		a := c.Parameter(0, "a", []int{p.m, p.k})
		w := c.Parameter(1, "w", []int{p.n, p.k}) // transposed: rhs packs
		full := c.AllGather(a, 0, groups)
		c.Einsum("mk,nk->mn", full, w)
		return c
	}
	rng := rand.New(rand.NewSource(71))
	shards := make([]*tensor.Tensor, p.devices)
	for d := range shards {
		shards[d] = tensor.Rand(rng, p.m, p.k)
	}
	args := [][]*tensor.Tensor{shards, {tensor.Rand(rng, p.n, p.k)}}

	// The pack-cache toggle is process-global; run each variant under
	// its own setting and restore the default afterwards.
	defer tensor.SetPackCache(true)

	type variant struct {
		name      string
		rolled    bool
		packCache bool
		splitK    int
	}
	variants := []variant{
		{"rolled loop", true, true, 0},
		{"expanded", false, true, 0},
		{"expanded, pack cache off", false, false, 0},
		{fmt.Sprintf("expanded, split-K %d", p.splitK), false, true, p.splitK},
	}

	times := make([]float64, len(variants))
	var firstValues []*tensor.Tensor
	for i, v := range variants {
		c := build()
		opts := core.DefaultOptions(spec)
		opts.UseCostModel = false
		opts.Rolled = v.rolled
		opts.KernelSplitK = v.splitK
		if _, err := core.Apply(c, opts); err != nil {
			return "", nil, err
		}
		tensor.SetPackCache(v.packCache)
		best := 0.0
		for rep := 0; rep <= p.reps; rep++ {
			res, err := runtime.Run(c, p.devices, args, runtime.Options{Transport: DefaultTransport})
			if err != nil {
				return "", nil, err
			}
			if rep == 0 {
				// Warm-up populates the pack cache and the scheduler; its
				// time is discarded. Variants that keep the ascending-k
				// contract (every one but split-K, which reassociates by
				// design) must agree bit for bit.
				if v.splitK == 0 {
					if firstValues == nil {
						firstValues = res.Values
					} else {
						for d := range res.Values {
							if !res.Values[d].Equal(firstValues[d]) {
								return "", nil, fmt.Errorf("wallclock: variant %q diverges bitwise on device %d", v.name, d)
							}
						}
					}
				}
				continue
			}
			if best == 0 || res.Breakdown.StepTime < best {
				best = res.Breakdown.StepTime
			}
		}
		times[i] = best
	}

	base := times[1] // expanded form is the reference point
	normalized := make([]float64, len(variants))
	out := "Extension: measured kernel-engine wall-clock of one decomposed site (not simulated)\n"
	out += table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "configuration\tstep time\tnormalized (vs expanded)")
		for i, v := range variants {
			normalized[i] = times[i] / base
			fmt.Fprintf(w, "%s\t%.3f ms\t%.2fx\n", v.name, 1e3*times[i], normalized[i])
		}
	})
	return out, normalized, nil
}
