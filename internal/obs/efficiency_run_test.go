package obs_test

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"overlap/internal/core"
	"overlap/internal/corpus"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

// TestOverlapEfficiencyOnTheCorpus checks OverlapEfficiency against the
// report on every corpus program's traced runs, as built and (but for
// the goldens, already rewritten) decomposed by the default pipeline:
// its simulated run, priced by the machine model, and its measured run
// on the concurrent runtime, at the clock the Executable derives for
// it. The two must
// agree bit for bit, and on the executor's stream — grouped by device
// already — the efficiency must cost no allocation once the pooled
// scratch has grown (not under the race detector, which makes sync.Pool
// drop items at random).
func TestOverlapEfficiencyOnTheCorpus(t *testing.T) {
	progs, err := corpus.Programs()
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.TPUv4()
	rng := rand.New(rand.NewSource(60))
	check := func(name string, spans []obs.Span) {
		t.Helper()
		got, want := obs.OverlapEfficiency(spans), obs.Attribute(spans).OverlapEfficiency()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: OverlapEfficiency %v, the report's %v", name, got, want)
		}
		if corpus.RaceEnabled {
			return
		}
		if allocs := testing.AllocsPerRun(10, func() { obs.OverlapEfficiency(spans) }); allocs != 0 {
			t.Fatalf("%s: OverlapEfficiency of %d spans allocates %v times, want 0", name, len(spans), allocs)
		}
	}
	opts := core.DefaultOptions(spec)
	opts.UseCostModel = false // the miniatures would not pass the full-size gate
	hidden := 0
	run := func(name string, c *hlo.Computation, devices int) {
		_, modeled, err := sim.SimulateTrace(c, devices, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name+" (modeled)", modeled)

		x, err := runtime.Compile(c, devices, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		params := c.Parameters()
		args := make([][]*tensor.Tensor, len(params))
		for i, param := range params {
			args[i] = []*tensor.Tensor{tensor.Rand(rng, param.Shape...)}
		}
		clock, err := x.Clock(context.Background(), args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := x.Run(context.Background(), args, runtime.Options{TimeScale: clock, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name+" (measured)", res.Trace)
		if obs.OverlapEfficiency(res.Trace) > 0 {
			hidden++
		}
		res.Release()
		runtime.ReleaseTrace(res.Trace)
	}
	for _, p := range progs {
		if p.Long() && (testing.Short() || corpus.RaceEnabled) {
			continue
		}
		run(p.Name, p.Comp, p.Devices)
		if strings.HasPrefix(p.Name, "golden/") {
			continue // already decomposed
		}
		if _, err := core.Apply(p.Comp, opts); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		run(p.Name+"/default", p.Comp, p.Devices)
	}
	if hidden == 0 {
		t.Fatal("no measured run of the corpus hid any wire: the comparison saw only zeros")
	}
}
