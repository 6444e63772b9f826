package experiments

import (
	"fmt"
	"math/rand"
	"text/tabwriter"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
	"overlap/internal/topology"
)

// DefaultTransport is the fabric transport the wall-clock experiments
// execute on (overlapbench -transport sets it). The transport
// comparison experiment ignores it: that one always measures both.
var DefaultTransport = runtime.TransportChan

// transportParams sizes the measured site. The defaults keep one run
// short enough that spawning worker processes per repetition stays
// cheap while the decomposed site still has enough async transfers for
// the overlap-efficiency column to mean something; the test uses a
// miniature configuration.
type transportParams struct {
	devices   int
	m, k, n   int     // per-shard partial-einsum shape
	reps      int     // measured repetitions (plus one warm-up)
	timeScale float64 // wire-delay scale (modeled seconds sleep this much longer)
}

func defaultTransportParams() transportParams {
	return transportParams{devices: 4, m: 4, k: 8192, n: 256, reps: 3, timeScale: 4000}
}

// Transport measures the same decomposed AllGather/einsum site on both
// fabric transports — in-process channels and per-device worker
// processes over Unix sockets — and reports each one's measured step
// breakdown plus its overlap efficiency (the fraction of injected wire
// occupancy hidden under compute). Results must stay bit-identical
// across transports; a divergence is an error, not a table row. The
// numeric series is [chan efficiency, proc efficiency, proc/chan step
// ratio].
func Transport(spec machine.Spec) (string, []float64, error) {
	return transportCompare(spec, defaultTransportParams())
}

func transportCompare(spec machine.Spec, p transportParams) (string, []float64, error) {
	build := func() (*hlo.Computation, error) {
		groups := topology.NewRing(p.devices).AxisGroups(0)
		c := hlo.NewComputation("transport")
		a := c.Parameter(0, "a", []int{p.m, p.k})
		w := c.Parameter(1, "w", []int{p.n, p.k}) // transposed: rhs packs
		full := c.AllGather(a, 0, groups)
		c.Einsum("mk,nk->mn", full, w)
		opts := core.DefaultOptions(spec)
		opts.UseCostModel = false
		if _, err := core.Apply(c, opts); err != nil {
			return nil, err
		}
		return c, nil
	}
	rng := rand.New(rand.NewSource(83))
	shards := make([]*tensor.Tensor, p.devices)
	for d := range shards {
		shards[d] = tensor.Rand(rng, p.m, p.k)
	}
	args := [][]*tensor.Tensor{shards, {tensor.Rand(rng, p.n, p.k)}}

	kinds := []runtime.TransportKind{runtime.TransportChan, runtime.TransportProc}
	steps := make([]float64, len(kinds))
	effs := make([]float64, len(kinds))
	breakdowns := make([]struct{ compute, wire, exposed float64 }, len(kinds))
	var refValues []*tensor.Tensor
	for i, kind := range kinds {
		c, err := build()
		if err != nil {
			return "", nil, err
		}
		// Trace every run so overlap efficiency comes from the same
		// span-stream attribution the daemon and traceviz report; the
		// tracing cost lands on both transports alike.
		ropts := runtime.Options{Spec: spec, TimeScale: p.timeScale, Transport: kind, Trace: true}
		for rep := 0; rep <= p.reps; rep++ {
			res, err := runtime.Run(c, p.devices, args, ropts)
			if err != nil {
				return "", nil, fmt.Errorf("transport %s: %w", kind, err)
			}
			if rep == 0 {
				// Warm-up: discard its time, pin bitwise equality across
				// transports — the whole point of the socket path is that
				// moving tensors between processes changes nothing.
				if refValues == nil {
					refValues = res.Values
				} else {
					for d := range res.Values {
						if !res.Values[d].Equal(refValues[d]) {
							return "", nil, fmt.Errorf("transport %s diverges bitwise from %s on device %d", kind, kinds[0], d)
						}
					}
				}
				continue
			}
			b := res.Breakdown
			if steps[i] == 0 || b.StepTime < steps[i] {
				steps[i] = b.StepTime
				breakdowns[i] = struct{ compute, wire, exposed float64 }{b.Compute, b.CollectiveWire, b.Exposed}
				effs[i] = obs.Attribute(res.Trace).OverlapEfficiency()
			}
		}
	}

	out := "Extension: fabric transport comparison on one decomposed site (measured, not simulated)\n"
	out += table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "transport\tstep time\tcompute\twire\texposed\toverlap efficiency")
		for i, kind := range kinds {
			b := breakdowns[i]
			fmt.Fprintf(w, "%s\t%.3f ms\t%.3f ms\t%.3f ms\t%.3f ms\t%.0f%%\n",
				kind, 1e3*steps[i], 1e3*b.compute, 1e3*b.wire, 1e3*b.exposed, 100*effs[i])
		}
	})
	out += fmt.Sprintf("proc/chan step ratio: %.2fx (results bit-identical across transports)\n", steps[1]/steps[0])
	return out, []float64{effs[0], effs[1], steps[1] / steps[0]}, nil
}
