package machine

import (
	"math"
	"testing"
	"testing/quick"

	"overlap/internal/hlo"
)

func flat() Spec {
	return Spec{
		Name: "flat", PeakFLOPS: 1e12, MatmulEfficiency: 1, EfficiencyKnee: 0,
		HBMBandwidth: 1e12, LinkBandwidth: 1e9, LinkLatency: 1e-6,
		OpOverhead: 0, MaxInFlight: 4,
	}
}

func TestValidate(t *testing.T) {
	if err := TPUv4().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TPUv4()
	bad.PeakFLOPS = 0
	if bad.Validate() == nil {
		t.Fatal("zero peak accepted")
	}
	bad = TPUv4()
	bad.MatmulEfficiency = 1.5
	if bad.Validate() == nil {
		t.Fatal("efficiency > 1 accepted")
	}
	bad = TPUv4()
	bad.MaxInFlight = 0
	if bad.Validate() == nil {
		t.Fatal("zero async budget accepted")
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.LinkBandwidth = -1 },
		func(s *Spec) { s.HBMBandwidth = 0 },
		func(s *Spec) { s.LinkLatency = -1e-9 },
		func(s *Spec) { s.OpOverhead = -1e-9 },
		func(s *Spec) { s.EfficiencyKnee = -1 },
		func(s *Spec) { s.PeakFLOPS = math.NaN() },
		func(s *Spec) { s.LinkLatency = math.Inf(1) },
		func(s *Spec) { s.MatmulEfficiency = math.NaN() },
	}
	for i, mutate := range mutations {
		bad = TPUv4()
		mutate(&bad)
		if bad.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestFingerprint(t *testing.T) {
	a, b := TPUv4(), TPUv4()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical specs fingerprint differently")
	}
	b.LinkBandwidth *= 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("link bandwidth change not reflected in fingerprint")
	}
	if TPUv4().Fingerprint() == GPUCluster().Fingerprint() {
		t.Fatal("distinct specs share a fingerprint")
	}
}

func TestCalibrationApply(t *testing.T) {
	s := TPUv4()
	if got := Identity().Apply(s); got != s {
		t.Fatalf("identity calibration changed the spec: %+v", got)
	}

	// Doubling compute throughput halves einsum time; the efficiency
	// ceiling overflow must land in PeakFLOPS so the spec still
	// validates.
	cal := Calibration{ComputeScale: 4, WireScale: 2, OverheadScale: 0.5}
	got := cal.Apply(s)
	if err := got.Validate(); err != nil {
		t.Fatalf("calibrated spec invalid: %v", err)
	}
	wantThroughput := s.PeakFLOPS * s.MatmulEfficiency * 4
	if gotTp := got.PeakFLOPS * got.MatmulEfficiency; math.Abs(gotTp-wantThroughput)/wantThroughput > 1e-9 {
		t.Fatalf("compute throughput %v, want %v", gotTp, wantThroughput)
	}
	if got.MatmulEfficiency != 1 {
		t.Fatalf("efficiency %v, want saturated at 1", got.MatmulEfficiency)
	}
	if got.LinkBandwidth != s.LinkBandwidth*2 {
		t.Fatalf("link bandwidth %v, want doubled", got.LinkBandwidth)
	}
	if got.OpOverhead != s.OpOverhead*0.5 {
		t.Fatalf("op overhead %v, want halved", got.OpOverhead)
	}
	if got.HBMBandwidth != s.HBMBandwidth*4 {
		t.Fatalf("HBM bandwidth %v, want quadrupled", got.HBMBandwidth)
	}

	// Degenerate factors degrade to identity instead of corrupting.
	wild := Calibration{ComputeScale: math.NaN(), WireScale: -2, OverheadScale: 0}
	if got := wild.Apply(s); got != s {
		t.Fatalf("degenerate calibration changed the spec: %+v", got)
	}
}

func TestCalibrationSetters(t *testing.T) {
	s := TPUv4()
	if got := s.WithMatmulEfficiency(2); got.MatmulEfficiency != 1 {
		t.Fatalf("efficiency not clamped to 1: %v", got.MatmulEfficiency)
	}
	if got := s.WithMatmulEfficiency(-1); got.Validate() != nil {
		t.Fatal("negative efficiency produced an invalid spec")
	}
	if got := s.WithLinkBandwidth(-5); got.Validate() != nil {
		t.Fatal("negative bandwidth produced an invalid spec")
	}
	if got := s.WithOpOverhead(-1); got.OpOverhead != 0 {
		t.Fatalf("negative overhead not clamped: %v", got.OpOverhead)
	}
}

func TestEinsumEfficiencyCurve(t *testing.T) {
	s := TPUv4()
	if got := s.EinsumEfficiency(1 << 20); got < 0.85*s.MatmulEfficiency {
		t.Fatalf("large einsum efficiency = %v, want near %v", got, s.MatmulEfficiency)
	}
	small := s.EinsumEfficiency(32)
	large := s.EinsumEfficiency(4096)
	if small >= large {
		t.Fatalf("efficiency not monotone: eff(32)=%v >= eff(4096)=%v", small, large)
	}
	if got := s.EinsumEfficiency(0); got != s.MatmulEfficiency {
		t.Fatalf("unknown minDim must use asymptotic efficiency, got %v", got)
	}
}

func TestEinsumTimeRoofline(t *testing.T) {
	s := flat()
	// Compute bound: 2e9 FLOPs at 1e12 → 2ms; 1KB of memory is free.
	if got := s.EinsumTime(2e9, 1024, 0); math.Abs(got-2e-3) > 1e-12 {
		t.Fatalf("compute-bound time = %v", got)
	}
	// Memory bound: tiny FLOPs, 1e9 bytes at 1e12 B/s → 1ms.
	if got := s.EinsumTime(10, 1e9, 0); math.Abs(got-1e-3) > 1e-12 {
		t.Fatalf("memory-bound time = %v", got)
	}
}

func TestTransferTime(t *testing.T) {
	s := flat()
	if got := s.TransferTime(1e9, 1); math.Abs(got-(1+1e-6)) > 1e-12 {
		t.Fatalf("TransferTime = %v", got)
	}
	if got := s.TransferTime(0, 3); math.Abs(got-3e-6) > 1e-15 {
		t.Fatalf("latency-only TransferTime = %v", got)
	}
	// Zero hops clamps to one.
	if got := s.TransferTime(0, 0); got != s.TransferTime(0, 1) {
		t.Fatal("hop clamping broken")
	}
}

func TestRingCollectiveTimes(t *testing.T) {
	s := flat()
	s.LinkLatency = 0
	full := int64(8e9)
	// AllGather over 4 devices: receive 3/4 of the result over two
	// directions → 6e9/2e9... careful: 8e9 * 3/4 / (2*1e9) = 3s.
	if got := s.RingAllGatherTime(full, 4); math.Abs(got-3) > 1e-9 {
		t.Fatalf("RingAllGatherTime = %v, want 3", got)
	}
	if got := s.RingReduceScatterTime(full, 4); math.Abs(got-3) > 1e-9 {
		t.Fatalf("RingReduceScatterTime = %v, want 3", got)
	}
	if got := s.RingAllReduceTime(full, 4); math.Abs(got-6) > 1e-9 {
		t.Fatalf("RingAllReduceTime = %v, want 6", got)
	}
	// Degenerate single-device groups are free.
	if s.RingAllGatherTime(full, 1) != 0 || s.RingAllReduceTime(full, 1) != 0 {
		t.Fatal("single-device collectives must be free")
	}
	// AllToAll grows with group size at fixed bytes.
	if s.AllToAllTime(full, 8) <= s.AllToAllTime(full, 4) {
		t.Fatal("AllToAll cost must grow with ring size")
	}
}

func TestInstructionCostDispatch(t *testing.T) {
	s := flat()
	c := hlo.NewComputation("cost")
	a := c.Parameter(0, "a", []int{512, 512})
	b := c.Parameter(1, "b", []int{512, 512})
	ein := c.Einsum("ik,kj->ij", a, b)
	add := c.Add(ein, ein)
	ag := c.AllGather(add, 0, [][]int{{0, 1}})
	start := c.CollectivePermuteStart(add, []hlo.SourceTargetPair{{Source: 0, Target: 1}, {Source: 1, Target: 0}})
	done := c.CollectivePermuteDone(start)
	_ = done

	if got := s.InstructionCost(a); got != 0 {
		t.Fatalf("parameter cost = %v", got)
	}
	einWant := 2.0 * 512 * 512 * 512 / 1e12
	if got := s.InstructionCost(ein); math.Abs(got-einWant)/einWant > 1e-9 {
		t.Fatalf("einsum cost = %v, want %v", got, einWant)
	}
	addWant := 3.0 * 512 * 512 * 4 / 1e12 // two reads + one write
	if got := s.InstructionCost(add); math.Abs(got-addWant)/addWant > 1e-9 {
		t.Fatalf("add cost = %v, want %v", got, addWant)
	}
	if got := s.InstructionCost(start); got != 0 {
		t.Fatalf("async start cost = %v, want 0", got)
	}
	if got := s.InstructionCost(ag); got != s.OpOverhead {
		t.Fatalf("collective local cost = %v", got)
	}
	if got := s.CollectiveTime(ag); got <= 0 {
		t.Fatalf("collective wire time = %v", got)
	}
	if got := s.CollectiveTime(ein); got != 0 {
		t.Fatalf("einsum wire time = %v, want 0", got)
	}
}

func TestFusionCostCountsExternalBytesOnly(t *testing.T) {
	s := flat()
	s.HBMBandwidth = 1e9 // make memory dominant

	// Unfused: einsum + add, each paying memory traffic.
	c := hlo.NewComputation("unfused")
	a := c.Parameter(0, "a", []int{64, 64})
	b := c.Parameter(1, "b", []int{64, 64})
	ein := c.Einsum("ik,kj->ij", a, b)
	add := c.Add(ein, a)
	unfused := s.InstructionCost(ein) + s.InstructionCost(add)

	// Fused: one kernel, intermediate stays in registers.
	body := hlo.NewComputation("body")
	p0 := body.Parameter(0, "p0", []int{64, 64})
	p1 := body.Parameter(1, "p1", []int{64, 64})
	ein2 := body.Einsum("ik,kj->ij", p0, p1)
	body.Add(ein2, p0)
	c2 := hlo.NewComputation("fused")
	a2 := c2.Parameter(0, "a", []int{64, 64})
	b2 := c2.Parameter(1, "b", []int{64, 64})
	f := c2.Fusion("f", body, a2, b2)
	fused := s.InstructionCost(f)

	if fused >= unfused {
		t.Fatalf("fusion did not reduce cost: fused=%v unfused=%v", fused, unfused)
	}
}

func TestEinsumStats(t *testing.T) {
	c := hlo.NewComputation("stats")
	a := c.Parameter(0, "a", []int{8, 32})
	b := c.Parameter(1, "b", []int{32, 16})
	ein := c.Einsum("ik,kj->ij", a, b)
	flops, minDim := ein.EinsumStats()
	if flops != 2*8*32*16 {
		t.Fatalf("flops = %d", flops)
	}
	if minDim != 8 {
		t.Fatalf("minDim = %d, want 8", minDim)
	}
}

func TestGPUClusterSpec(t *testing.T) {
	g := GPUCluster()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	tpu := TPUv4()
	// The §7.2 premise: the GPU island has a lower FLOPS-to-link-
	// bandwidth ratio, so relatively less communication time to hide.
	if g.PeakFLOPS/g.LinkBandwidth >= tpu.PeakFLOPS/tpu.LinkBandwidth {
		t.Fatalf("GPU FLOPS/bandwidth ratio %.0f not below TPU %.0f",
			g.PeakFLOPS/g.LinkBandwidth, tpu.PeakFLOPS/tpu.LinkBandwidth)
	}
}

// Property: every cost function is monotone in its byte argument and
// collective times are monotone in group size at fixed per-device bytes.
func TestCostMonotonicity(t *testing.T) {
	s := TPUv4()
	f := func(a, b uint32) bool {
		x, y := int64(a)+1, int64(b)+1
		if x > y {
			x, y = y, x
		}
		if s.TransferTime(x, 1) > s.TransferTime(y, 1) {
			return false
		}
		if s.MemoryTime(x) > s.MemoryTime(y) {
			return false
		}
		if s.RingAllGatherTime(x, 8) > s.RingAllGatherTime(y, 8) {
			return false
		}
		if s.RingReduceScatterTime(x, 8) > s.RingReduceScatterTime(y, 8) {
			return false
		}
		return s.EinsumTime(int64(a), x, 512) <= s.EinsumTime(int64(a)+int64(b), y, 512)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Larger rings take longer at the same total payload.
	for g := 2; g < 64; g *= 2 {
		if s.RingAllGatherTime(1<<20, g) > s.RingAllGatherTime(1<<20, g*2) {
			t.Fatalf("all-gather time not monotone in ring size at g=%d", g)
		}
	}
}
