package runtime_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"overlap/internal/autotune"
	"overlap/internal/core"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/runtime"
	"overlap/internal/serve"
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

// trainOverlap is the full overlap pipeline the training programs run
// through.
func trainOverlap() *core.Options {
	opts := core.DefaultOptions(machine.TPUv4())
	opts.UseCostModel = false
	opts.RematerializeGathers = true
	return &opts
}

// trainStep builds one strategy's two-layer training program through
// the given pipeline (nil keeps the blocking baseline), with its seeded
// arguments.
func trainStep(t *testing.T, s train.Strategy, pipeline *core.Options) (*train.Program, [][]*tensor.Tensor) {
	t.Helper()
	prog, err := train.Build(train.Config{Devices: 4, Layers: 2, Model: 8, Hidden: 16, Tokens: 16, Strategy: s})
	if err != nil {
		t.Fatal(err)
	}
	if pipeline != nil {
		if _, err := core.Apply(prog.Comp, *pipeline); err != nil {
			t.Fatal(err)
		}
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
		{"rolled", &core.Options{Spec: spec, Knobs: core.Knobs{Rolled: true, Scheduler: core.SchedulerNone}}},
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
		prog, args := trainStep(t, s, trainOverlap())
		// Three steps, released the way train.Execute does: each runs on
		// weights the step before produced, and from the third on out of
		// the poisoned output buffers of the step before that.
		var prev *runtime.Result
		for step := 0; step < 3; step++ {
			res := checkOutputsBitwise(t, fmt.Sprintf("train/%s/step%d", s, step), prog.Comp, n, args)
			for i := 0; i < prog.Config.NumWeights(); i++ {
				args[train.ParamWeight0+i] = res.All[prog.RootWeight(i)]
			}
			if prev != nil {
				prev.Release()
			}
			prev = res
		}
	}

	// Blocking collectives write each member's share into a buffer that
	// member owns. Their results reaching Result directly — alone, and
	// beside a value computed from them — leave the arena by move.
	ring := topology.NewRing(n)
	direct := hlo.NewComputation("gather-is-root")
	direct.AllGather(direct.Parameter(0, "a", []int{2, 4}), 0, ring.AxisGroups(0))
	checkOutputsBitwise(t, "gather-is-root", direct, n, randomArgs(direct, n, rng))

	outputs := hlo.NewComputation("collectives-are-outputs")
	{
		c := outputs
		a := c.Parameter(0, "a", []int{8, 4})
		rs := c.ReduceScatter(a, 0, ring.AxisGroups(0))
		ar := c.AllReduce(a, [][]int{{0, 2}, {1, 3}})
		c.Tuple(rs, ar, c.Add(ar, ar), c.CollectivePermute(a, ringPairs(n)[:n-1]))
	}
	// Run N's released outputs are run N+1's buffers.
	args := randomArgs(outputs, n, rng)
	for run := 0; run < 3; run++ {
		checkOutputsBitwise(t, fmt.Sprintf("collectives-are-outputs/run%d", run), outputs, n, args).Release()
	}

	// A collective in a loop body, its result consumed in place, with one
	// device held back between the collective and that read on every
	// trip: the others are through generation k and depositing for k+1
	// while it has yet to read k's result.
	body := hlo.NewComputation("body")
	{
		b := body
		p := b.Parameter(0, "p", []int{2, 4})
		q := b.Parameter(1, "q", []int{8, 4})
		start := b.CollectivePermuteStart(p, ringPairs(n))
		full := b.AllGather(p, 0, ring.AxisGroups(0))
		shard := b.CollectivePermuteDone(start) // device 1 waits here
		b.Tuple(shard, b.Add(full, q))          // full dies into the sum
	}
	looped := hlo.NewComputation("collective-in-loop")
	{
		c := looped
		x := c.Parameter(0, "x", []int{2, 4})
		acc := c.Parameter(1, "acc", []int{8, 4})
		c.Loop(body, 6, 1, x, acc)
	}
	// Held in wall time: a delay fault would only move device 1's clock.
	defer runtime.HoldBack(1, 2*time.Millisecond)()
	checkOutputsBitwise(t, "collective-in-loop", looped, n, randomArgs(looped, n, rng))
}

// TestPlanRefusesUnsafeReuse pins, under the NaN canary, the reuse the
// buffer plan must refuse and the one that only looks unsafe. A value
// posted by a start and read again afterwards has two readers — the
// link and the later op — so the link gets a copy, not the buffer. An
// AllGather's result, on the other hand, is each member's own copy: a
// member whose DynamicUpdateSlice is its last reader writes into it in
// place, and no other member may see that window change.
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
		// Each member overwrites a different window of its own copy; full
		// dies here.
		own := c.DynamicUpdateSlice(full, u, []hlo.DynOffset{{PIDFactor: 1, Mod: n, Scale: 2}, hlo.Static(0)})
		// A barrier, so every member's update has happened before any
		// member reads its own.
		c.AllGather(u, 0, ring.AxisGroups(0))
		c.Add(own, own)
	}
	checkOutputsBitwise(t, "shared-gather", shared, n, randomArgs(shared, n, rng))
}

// TestBlockingCollectivesInALongLoop runs blocking collectives — an
// AllGather over the ring and an AllReduce over two pairs — in a loop
// body of 64 trips, with one device held back on every trip, bitwise
// against the interpreter under both canaries. Each group gathers in
// two states used by the generation's parity, so every state is reused
// 32 times, while devices that are through one generation already
// deposit into the other; a state reset too late, or read after its
// reset, shows as a wrong or poisoned result, and under -race as the
// cross-device write it is.
func TestBlockingCollectivesInALongLoop(t *testing.T) {
	defer runtime.PoisonReleased()()
	defer sim.PoisonReleased()()
	const n, trips = 4, 64
	ring := topology.NewRing(n)
	body := hlo.NewComputation("body")
	{
		b := body
		p := b.Parameter(0, "p", []int{2, 4})
		acc := b.Parameter(1, "acc", []int{8, 4})
		start := b.CollectivePermuteStart(p, ringPairs(n))
		full := b.AllGather(p, 0, ring.AxisGroups(0))
		sum := b.AllReduce(full, [][]int{{0, 2}, {1, 3}})
		shard := b.CollectivePermuteDone(start) // device 1 waits here
		b.Tuple(shard, b.Add(acc, sum))
	}
	looped := hlo.NewComputation("collectives-in-a-long-loop")
	{
		c := looped
		x := c.Parameter(0, "x", []int{2, 4})
		acc := c.Parameter(1, "acc", []int{8, 4})
		c.Loop(body, trips, 1, x, acc)
	}
	// Held in wall time: a delay fault would only move device 1's clock.
	defer runtime.HoldBack(1, 200*time.Microsecond)()
	rng := rand.New(rand.NewSource(29))
	checkOutputsBitwise(t, "collectives-in-a-long-loop", looped, n, randomArgs(looped, n, rng)).Release()
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
// model's peak for everything but the parameters. Collective results
// and outputs are arena buffers like any other, so the only slack left
// is what the model deliberately over-counts (constants, an Add that
// the runtime folds into a dying operand, a loop's carried values
// counted at both ends); on several goldens the two sides are equal.
// What it catches is the runtime keeping buffers alive that the model
// says are dead — and a model that forgets a buffer the runtime holds.
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
	rolled := &core.Options{Spec: machine.TPUv4(), Knobs: core.Knobs{Rolled: true, Scheduler: core.SchedulerNone}}
	pipelines := []struct {
		name string
		opts *core.Options
	}{{"baseline", nil}, {"rolled", rolled}, {"overlap", trainOverlap()}}
	for _, model := range []string{"GPT_32B", "GLaM_1T", "T5_300B"} {
		cfg, err := models.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		mini, err := models.Miniature(cfg, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pipelines {
			c, err := models.BuildLayerStep(mini)
			if err != nil {
				t.Fatal(err)
			}
			if p.opts != nil {
				if _, err := core.Apply(c, *p.opts); err != nil {
					t.Fatalf("%s/%s: %v", model, p.name, err)
				}
			}
			check(model+"/"+p.name, c, randomArgs(c, n, rng))
		}
	}
	// The undecomposed baseline and the rolled form are where blocking
	// collectives' results dominate the arena.
	for _, s := range []train.Strategy{train.StrategyMegatron, train.StrategyDDP} {
		for _, p := range pipelines {
			prog, args := trainStep(t, s, p.opts)
			check(fmt.Sprintf("train/%s/%s", s, p.name), prog.Comp, args)
		}
	}
}

// TestResultRelease pins what Release may and may not touch, with the
// canary on so that every buffer it recycles turns to NaN: the outputs
// the run computed go back to the arena, once; an output that is an
// argument or a constant of the program is not the run's and stays bit
// for bit what it was; and a result nobody released stays valid however
// many runs, released or not, come after it.
func TestResultRelease(t *testing.T) {
	defer runtime.PoisonReleased()()
	const n = 2
	rng := rand.New(rand.NewSource(37))

	c := hlo.NewComputation("outputs")
	a := c.Parameter(0, "a", []int{4, 4})
	k := c.Constant("k", tensor.Rand(rng, 4, 4))
	sum := c.Add(a, k)
	c.Tuple(a, k, sum)
	args := randomArgs(c, n, rng)
	givenA := []*tensor.Tensor{args[0][0].Clone(), args[0][1].Clone()}
	givenK := k.Literal.Clone()

	kept, err := runtime.Run(c, n, args, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keptSum := []*tensor.Tensor{kept.All[sum][0].Clone(), kept.All[sum][1].Clone()}

	for run := 0; run < 3; run++ {
		res, err := runtime.Run(c, n, args, runtime.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.All[a][0] != args[0][0] || res.All[k][1] != k.Literal {
			t.Fatal("an output that is an argument or a constant should be that very tensor")
		}
		res.Release()
		if res.All != nil || res.Values != nil {
			t.Fatal("Release left All or Values behind")
		}
		res.Release() // a no-op, not a double release
	}
	for d := 0; d < n; d++ {
		if !args[0][d].Equal(givenA[d]) {
			t.Fatalf("device %d: Release wrote the caller's argument", d)
		}
		if !kept.All[sum][d].Equal(keptSum[d]) {
			t.Fatalf("device %d: an unreleased output changed under later runs", d)
		}
	}
	if !k.Literal.Equal(givenK) {
		t.Fatal("Release wrote the program's constant")
	}

	// An earlier result's output fed forward as an argument is borrowed
	// by the run it feeds: a root that is that parameter hands it back
	// untouched, and only the earlier result's own Release recycles it.
	id := hlo.NewComputation("identity")
	id.Parameter(0, "p", []int{4, 4})
	through, err := runtime.Run(id, n, [][]*tensor.Tensor{kept.All[sum]}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	through.Release()
	for d := 0; d < n; d++ {
		if !kept.All[sum][d].Equal(keptSum[d]) {
			t.Fatalf("device %d: releasing a pass-through result recycled its argument", d)
		}
	}
	kept.Release()
}

// TestResultReleaseRecyclesTables: Release hands a result's All map
// and slices back to the run context that filled them, and that
// context's next run refills them. With every recycled buffer poisoned,
// each run on recycled tables — one at a time, and with an unreleased
// result held across them — equals a fresh Executable's run bit for
// bit, and a released result keeps seeing nothing, never a later run's
// outputs.
func TestResultReleaseRecyclesTables(t *testing.T) {
	defer runtime.PoisonReleased()()
	const n = 4
	prog, args := trainStep(t, train.StrategyMegatron, trainOverlap())
	fresh, err := runtime.Compile(prog.Comp, n, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(context.Background(), args, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Release()

	x, err := runtime.Compile(prog.Comp, n, machine.TPUv4())
	if err != nil {
		t.Fatal(err)
	}
	run := func(label string) *runtime.Result {
		t.Helper()
		res, err := x.Run(context.Background(), args, runtime.Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := sameOutputs(res, want); err != nil {
			t.Fatalf("%s differs from a fresh Executable's run: %v", label, err)
		}
		return res
	}
	mapOf := func(r *runtime.Result) uintptr { return reflect.ValueOf(r.All).Pointer() }

	first := run("the first run")
	firstMap := mapOf(first)
	first.Release()
	if first.All != nil || first.Values != nil {
		t.Fatal("Release left All or Values behind")
	}
	second := run("a run on recycled tables")
	if mapOf(second) != firstMap {
		t.Fatal("the run after a Release built a new map instead of refilling the released one")
	}
	third := run("a run while the last result is held")
	if mapOf(third) == mapOf(second) {
		t.Fatal("two unreleased results share one map")
	}
	second.Release()
	fourth := run("a run on tables released while another result is held")
	if err := sameOutputs(third, want); err != nil {
		t.Fatalf("a held result changed under a later run on recycled tables: %v", err)
	}
	if first.All != nil {
		t.Fatal("a released result sees a later run's outputs")
	}
	third.Release()
	fourth.Release()
}

// TestReleasedArgumentsCanary is the canary over a served request's own
// buffers. The daemon draws a request's arguments from the arena's free
// lists, and after the digest and the interpreter check they go back —
// here NaN-filled. Request k+1 of the same plan draws those very
// buffers: with the same seed or a different one, it must refill every
// element it reads, or a NaN or the last request's weights reach its
// result. Every digest must be what the interpreter computes
// from freshly allocated arguments of that seed, for a forward layer
// and for a training step, checked and unchecked, on both transports.
func TestReleasedArgumentsCanary(t *testing.T) {
	defer runtime.PoisonReleased()()
	post := func(ts *httptest.Server, path string, req serve.Request) []byte {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %+v: status %d, %v: %s", path, req, resp.StatusCode, err, data)
		}
		return data
	}
	shapes := []serve.Request{
		{Model: "GPT_32B", Devices: 4, Dim: 2},
		{Model: "GPT_32B", Devices: 4, Dim: 2, Scenario: "train", Strategy: "megatron"},
	}
	for _, tr := range transports {
		s, err := serve.New(serve.Config{DisableDiskCache: true, TuneTopK: 1, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		for _, shape := range shapes {
			plan, err := autotune.DecodePlan(post(ts, "/v1/compile", shape))
			if err != nil {
				t.Fatal(err)
			}
			comp, err := plan.Computation()
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]string{}
			for k, seed := range []int64{42, 42, 7, 42, 7, 9} {
				if want[seed] == "" {
					all, err := sim.InterpretAll(comp, plan.Devices, serve.Args(comp, seed))
					if err != nil {
						t.Fatal(err)
					}
					want[seed] = serve.Digest(serve.Outputs(comp, all, plan.Devices))
				}
				req := shape
				req.Seed, req.Check = seed, k%2 == 1
				var got serve.RunResponse
				if err := json.Unmarshal(post(ts, "/v1/run", req), &got); err != nil {
					t.Fatal(err)
				}
				if got.Digest != want[seed] {
					t.Fatalf("%s, %s%s request %d (seed %d): digest %s, the interpreter's is %s",
						tr, shape.Model, shape.Scenario, k, seed, got.Digest, want[seed])
				}
			}
		}
		ts.Close()
	}
}
