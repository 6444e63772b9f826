package runtime_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/runtime"
	"overlap/internal/sim"
	"overlap/internal/tensor"
	"overlap/internal/topology"
	"overlap/internal/train"
)

// randomArgs draws one tensor per device for every parameter.
func randomArgs(c *hlo.Computation, n int, rng *rand.Rand) [][]*tensor.Tensor {
	params := c.Parameters()
	args := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		args[i] = make([]*tensor.Tensor, n)
		for d := range args[i] {
			args[i][d] = tensor.Rand(rng, p.Shape...)
		}
	}
	return args
}

// checkOutputsBitwise runs the program on both transports and requires
// every output — the root and, under a tuple root, each operand — to
// equal the interpreter's bit for bit on every device. It returns the
// channel run's result.
func checkOutputsBitwise(t *testing.T, label string, c *hlo.Computation, n int, args [][]*tensor.Tensor) *runtime.Result {
	t.Helper()
	want, err := sim.InterpretAll(c, n, args)
	if err != nil {
		t.Fatalf("%s: interpret: %v", label, err)
	}
	outputs := []*hlo.Instruction{c.Root()}
	if c.Root().Op == hlo.OpTuple {
		outputs = append(outputs, c.Root().Operands...)
	}
	var first *runtime.Result
	for _, tr := range transports {
		res, err := runtime.Run(c, n, args, runtime.Options{Transport: tr})
		if err != nil {
			t.Fatalf("%s (%s): %v", label, tr, err)
		}
		for _, out := range outputs {
			for d := 0; d < n; d++ {
				if !res.All[out][d].Equal(want[out][d]) {
					t.Fatalf("%s (%s): %s on device %d diverges from the interpreter by %v",
						label, tr, out.Name, d, res.All[out][d].MaxDifference(want[out][d]))
				}
			}
		}
		if first == nil {
			first = res
		}
	}
	return first
}

// trainStep builds one strategy's two-layer training program through
// the full overlap pipeline, with its seeded arguments.
func trainStep(t *testing.T, s train.Strategy) (*train.Program, [][]*tensor.Tensor) {
	t.Helper()
	prog, err := train.Build(train.Config{Devices: 4, Layers: 2, Model: 8, Hidden: 16, Tokens: 16, Strategy: s})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	opts.RematerializeGathers = true
	if _, err := core.Apply(prog.Comp, opts); err != nil {
		t.Fatal(err)
	}
	args, err := train.Args(prog, 5, 1.0/1024)
	if err != nil {
		t.Fatal(err)
	}
	return prog, args
}

// goldenPrograms parses the five pinned decompositions of
// core/testdata.
func goldenPrograms(t *testing.T) map[string]*hlo.Computation {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "core", "testdata", "*.golden"))
	if err != nil || len(paths) != 5 {
		t.Fatalf("want the five core goldens, found %d (%v)", len(paths), err)
	}
	out := map[string]*hlo.Computation{}
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := hlo.Parse(string(text))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = c
	}
	return out
}

// TestUseAfterReleaseCanary runs the whole differential surface with
// every released buffer overwritten by NaN before it can be reused: a
// value read after the position the plan released it at, or a buffer
// recycled while a link still carries it, turns into NaNs in some
// output and fails the bitwise comparison with the interpreter (and,
// under -race on the channel transport, shows as the cross-device
// write it is).
func TestUseAfterReleaseCanary(t *testing.T) {
	defer runtime.PoisonReleased()()
	const n = 4
	rng := rand.New(rand.NewSource(23))

	for name, c := range goldenPrograms(t) {
		checkOutputsBitwise(t, name, c, n, randomArgs(c, n, rng))
	}

	spec := machine.TPUv4()
	force := func(unroll, bidi bool) *core.Options {
		o := forceOpts(unroll, bidi)
		return &o
	}
	variants := []struct {
		name string
		opts *core.Options
	}{
		{"baseline", nil},
		{"rolled", &core.Options{Spec: spec, Rolled: true, Scheduler: core.SchedulerNone}},
		{"decomposed", force(false, false)},
		{"bidirectional", force(false, true)},
		{"unrolled", force(true, false)},
	}
	for _, model := range []string{"GPT_32B", "GLaM_1T", "T5_300B"} {
		cfg, err := models.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		mini, err := models.Miniature(cfg, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			c, err := models.BuildLayerStep(mini)
			if err != nil {
				t.Fatal(err)
			}
			if v.opts != nil {
				if _, err := core.Apply(c, *v.opts); err != nil {
					t.Fatalf("%s/%s: %v", model, v.name, err)
				}
			}
			checkOutputsBitwise(t, model+"/"+v.name, c, n, randomArgs(c, n, rng))
		}
	}

	for _, s := range []train.Strategy{train.StrategyMegatron, train.StrategyDDP} {
		prog, args := trainStep(t, s)
		// Two steps: the second runs on weights the first produced, out
		// of buffers the first recycled.
		for step := 0; step < 2; step++ {
			res := checkOutputsBitwise(t, fmt.Sprintf("train/%s/step%d", s, step), prog.Comp, n, args)
			for i := 0; i < prog.Config.NumWeights(); i++ {
				args[train.ParamWeight0+i] = res.All[prog.RootWeight(i)]
			}
		}
	}
}

// TestPlanRefusesUnsafeReuse pins the two shapes the buffer plan must
// not optimize, under the NaN canary. A value posted by a start and
// read again afterwards has two readers — the link and the later op —
// so the link gets a copy, not the buffer. And an AllGather's result is
// one tensor shared by the whole group: a member whose
// DynamicUpdateSlice is its last reader still may not write into it.
func TestPlanRefusesUnsafeReuse(t *testing.T) {
	defer runtime.PoisonReleased()()
	const n = 4
	ring := topology.NewRing(n)
	rng := rand.New(rand.NewSource(29))

	posted := hlo.NewComputation("posted-then-read")
	{
		c := posted
		a := c.Parameter(0, "a", []int{8, 8})
		x := c.Add(a, a) // an arena buffer, owned by the device
		start := c.CollectivePermuteStart(x, ringPairs(n))
		y := c.Add(x, a) // x is read after it was posted
		z := c.Add(y, y) // ... and its buffer recycled while the parcel may still be on the link
		done := c.CollectivePermuteDone(start)
		c.Tuple(z, c.Add(done, a))
	}
	checkOutputsBitwise(t, "posted-then-read", posted, n, randomArgs(posted, n, rng))

	shared := hlo.NewComputation("shared-gather")
	{
		c := shared
		a := c.Parameter(0, "a", []int{2, 4})
		u := c.Parameter(1, "u", []int{2, 4})
		full := c.AllGather(a, 0, ring.AxisGroups(0))
		// Each member overwrites a different window; full dies here.
		own := c.DynamicUpdateSlice(full, u, []hlo.DynOffset{{PIDFactor: 1, Mod: n, Scale: 2}, hlo.Static(0)})
		// A barrier, so every member's update has happened before any
		// member reads its own.
		c.AllGather(u, 0, ring.AxisGroups(0))
		c.Add(own, own)
	}
	checkOutputsBitwise(t, "shared-gather", shared, n, randomArgs(shared, n, rng))
}

func ringPairs(n int) []hlo.SourceTargetPair {
	pairs := make([]hlo.SourceTargetPair, n)
	for d := range pairs {
		pairs[d] = hlo.SourceTargetPair{Source: d, Target: (d + 1) % n}
	}
	return pairs
}

// TestArenaWithinModeledPeak is the measured side of hlo.PeakMemory:
// the most arena bytes any device held at once must fit under the
// model's peak for everything but the parameters. The model also counts
// constants, collective results and outputs, which the arena does not
// hold, so the bound has slack; what it catches is the runtime keeping
// buffers alive that the model says are dead.
func TestArenaWithinModeledPeak(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(31))
	check := func(name string, c *hlo.Computation, args [][]*tensor.Tensor) {
		t.Helper()
		res, err := runtime.Run(c, n, args, runtime.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := hlo.PeakMemory(c)
		modeled := m.PeakBytes - m.ParameterBytes
		t.Logf("%s: arena peak %d B, modeled %d B", name, res.ArenaPeakBytes, modeled)
		if res.ArenaPeakBytes <= 0 || res.ArenaPeakBytes > modeled {
			t.Errorf("%s: arena peaked at %d bytes, modeled peak less parameters is %d", name, res.ArenaPeakBytes, modeled)
		}
	}
	for name, c := range goldenPrograms(t) {
		check(name, c, randomArgs(c, n, rng))
	}
	prog, args := trainStep(t, train.StrategyMegatron)
	check("train/megatron", prog.Comp, args)
}
