package sim

import (
	"math"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/machine"
)

// testSpec returns a machine with round numbers so expected times are
// easy to derive by hand: 1e12 FLOP/s, 1e9 B/s links, no latency or
// overheads.
func testSpec() machine.Spec {
	return machine.Spec{
		Name:             "test",
		PeakFLOPS:        1e12,
		MatmulEfficiency: 1,
		EfficiencyKnee:   0, // efficiency curve disabled
		HBMBandwidth:     1e15,
		LinkBandwidth:    1e9,
		LinkLatency:      0,
		OpOverhead:       0,
		MaxInFlight:      4,
	}
}

func shiftLeftPairs(n int) []hlo.SourceTargetPair {
	pairs := make([]hlo.SourceTargetPair, n)
	for i := range pairs {
		pairs[i] = hlo.SourceTargetPair{Source: i, Target: (i + n - 1) % n}
	}
	return pairs
}

func TestSimulateComputeOnly(t *testing.T) {
	c := hlo.NewComputation("compute")
	a := c.Parameter(0, "a", []int{1024, 1024})
	b := c.Parameter(1, "b", []int{1024, 1024})
	c.Einsum("ik,kj->ij", a, b)
	res, err := Simulate(c, 2, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * 1024 * 1024 * 1024 / 1e12 // 2*N^3 FLOPs at 1 TFLOP/s
	if math.Abs(res.StepTime-want)/want > 1e-9 {
		t.Fatalf("StepTime = %v, want %v", res.StepTime, want)
	}
	if res.Exposed != 0 || res.CollectiveWire != 0 {
		t.Fatalf("compute-only run has comm: %+v", res)
	}
}

func TestSimulateBlockingPermuteExposed(t *testing.T) {
	c := hlo.NewComputation("blocking")
	a := c.Parameter(0, "a", []int{1 << 20}) // 4 MiB
	c.CollectivePermute(a, shiftLeftPairs(4))
	res, err := Simulate(c, 4, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := 4.0 * (1 << 20) / 1e9 // bytes / link bandwidth
	if math.Abs(res.StepTime-want)/want > 1e-9 {
		t.Fatalf("StepTime = %v, want %v", res.StepTime, want)
	}
	if math.Abs(res.Exposed-want)/want > 1e-9 {
		t.Fatalf("Exposed = %v, want %v (fully blocking)", res.Exposed, want)
	}
}

// TestSimulateOverlapHidesTransfer is the core overlap arithmetic from
// Fig 4: with an async start before a long einsum and the done after it,
// the transfer is fully hidden and step time equals the compute time.
func TestSimulateOverlapHidesTransfer(t *testing.T) {
	spec := testSpec()
	build := func(async bool) *hlo.Computation {
		c := hlo.NewComputation("overlap")
		buf := c.Parameter(0, "buf", []int{1 << 20})
		a := c.Parameter(1, "a", []int{1024, 1024})
		b := c.Parameter(2, "b", []int{1024, 1024})
		if async {
			start := c.CollectivePermuteStart(buf, shiftLeftPairs(2))
			ein := c.Einsum("ik,kj->ij", a, b)
			got := c.Einsum("ik,kj->ij", ein, ein)
			last := c.Einsum("ik,kj->ij", got, got)
			_ = last
			done := c.CollectivePermuteDone(start)
			c.Copy(done)
		} else {
			c.CollectivePermute(buf, shiftLeftPairs(2))
			ein := c.Einsum("ik,kj->ij", a, b)
			got := c.Einsum("ik,kj->ij", ein, ein)
			c.Einsum("ik,kj->ij", got, got)
		}
		return c
	}
	asyncRes, err := Simulate(build(true), 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	syncRes, err := Simulate(build(false), 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	einTime := 3 * 2.0 * 1024 * 1024 * 1024 / 1e12
	transfer := 4.0 * (1 << 20) / 1e9
	if math.Abs(asyncRes.StepTime-einTime)/einTime > 1e-5 {
		t.Fatalf("async StepTime = %v, want %v (transfer hidden)", asyncRes.StepTime, einTime)
	}
	if asyncRes.Exposed > 1e-12 {
		t.Fatalf("async run exposed %v of comm", asyncRes.Exposed)
	}
	wantSync := einTime + transfer
	if math.Abs(syncRes.StepTime-wantSync)/wantSync > 1e-5 {
		t.Fatalf("sync StepTime = %v, want %v", syncRes.StepTime, wantSync)
	}
}

// When the transfer is longer than the overlapped compute, only the
// compute-sized portion hides; the remainder is exposed at the done.
func TestSimulatePartialOverlap(t *testing.T) {
	spec := testSpec()
	c := hlo.NewComputation("partial")
	buf := c.Parameter(0, "buf", []int{1 << 22}) // 16 MiB → 16.8ms
	a := c.Parameter(1, "a", []int{256, 256})
	b := c.Parameter(2, "b", []int{256, 256})
	start := c.CollectivePermuteStart(buf, shiftLeftPairs(2))
	ein := c.Einsum("ik,kj->ij", a, b) // ~33.6us
	_ = c.Einsum("ik,kj->ij", ein, ein)
	done := c.CollectivePermuteDone(start)
	c.Copy(done)
	res, err := Simulate(c, 2, spec)
	if err != nil {
		t.Fatal(err)
	}
	transfer := 4.0 * (1 << 22) / 1e9
	einTime := 2.0 * 256 * 256 * 256 / 1e12
	wantExposed := transfer - 2*einTime // two einsums execute before the done
	if math.Abs(res.Exposed-wantExposed)/wantExposed > 1e-6 {
		t.Fatalf("Exposed = %v, want %v", res.Exposed, wantExposed)
	}
}

func TestSimulateAllGatherBarrier(t *testing.T) {
	spec := testSpec()
	c := hlo.NewComputation("ag")
	x := c.Parameter(0, "x", []int{1 << 18})
	c.AllGather(x, 0, [][]int{{0, 1, 2, 3}})
	res, err := Simulate(c, 4, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.RingAllGatherTime(4*(1<<18)*4, 4)
	if math.Abs(res.StepTime-want)/want > 1e-9 {
		t.Fatalf("StepTime = %v, want %v", res.StepTime, want)
	}
	if math.Abs(res.Exposed-want)/want > 1e-9 {
		t.Fatal("blocking all-gather must be fully exposed")
	}
}

func TestSimulateDoneBeforeStartErrors(t *testing.T) {
	c := hlo.NewComputation("bad")
	x := c.Parameter(0, "x", []int{4})
	start := c.CollectivePermuteStart(x, shiftLeftPairs(2))
	done := c.CollectivePermuteDone(start)
	_ = done
	// Corrupt the schedule by swapping start and done directly.
	instrs := c.Instructions()
	instrs[1], instrs[2] = instrs[2], instrs[1]
	bad := hlo.NewComputation("bad2")
	_ = bad
	// Simulate processes the stored order; rebuild by SetSchedule being
	// rejected proves the verifier guards this path.
	if err := c.SetSchedule(instrs); err == nil {
		t.Fatal("invalid start/done order accepted by SetSchedule")
	}
}

func TestBreakdownCommFraction(t *testing.T) {
	b := Breakdown{StepTime: 10, Exposed: 4}
	if got := b.CommFraction(); got != 0.4 {
		t.Fatalf("CommFraction = %v", got)
	}
	if (Breakdown{}).CommFraction() != 0 {
		t.Fatal("zero step time must give zero fraction")
	}
}

func TestSimulateEfficiencyCurve(t *testing.T) {
	// A small einsum must run at lower efficiency than a large one when
	// the knee is enabled.
	spec := testSpec()
	spec.EfficiencyKnee = 128
	small := hlo.NewComputation("small")
	a := small.Parameter(0, "a", []int{8, 8})
	b := small.Parameter(1, "b", []int{8, 8})
	small.Einsum("ik,kj->ij", a, b)
	res, err := Simulate(small, 1, spec)
	if err != nil {
		t.Fatal(err)
	}
	ideal := 2.0 * 8 * 8 * 8 / 1e12
	if res.StepTime <= ideal {
		t.Fatalf("small einsum ran at full efficiency: %v <= %v", res.StepTime, ideal)
	}
}
