// Package machine models the accelerator hardware that the timing
// simulator and the paper's cost model (§5.5) estimate against: per-chip
// compute throughput with a roofline memory term, and the inter-chip
// interconnect (ICI) links of a ring/mesh/torus.
//
// The defaults approximate a TPU v4 chip. Absolute numbers are not the
// reproduction target — the *ratios* between compute and communication
// times are, and those are set by FLOP/s-to-link-bandwidth proportions
// that the defaults preserve.
package machine

import (
	"fmt"
	"math"

	"overlap/internal/hlo"
)

// Spec describes one accelerator chip and its interconnect attachment.
type Spec struct {
	Name string

	// PeakFLOPS is the chip's peak matrix-unit throughput in FLOP/s.
	PeakFLOPS float64
	// MatmulEfficiency is the fraction of peak a large, well-shaped
	// einsum achieves (compiler + pipeline losses).
	MatmulEfficiency float64
	// EfficiencyKnee is the einsum dimension size at which the matrix
	// unit reaches half its asymptotic efficiency; small post-partition
	// dimensions fall down this curve (the effect §2.2 cites as the
	// reason for 2D partitioning).
	EfficiencyKnee float64
	// HBMBandwidth is the chip's main-memory bandwidth in bytes/s; it
	// bounds element-wise and data-movement ops (roofline).
	HBMBandwidth float64

	// LinkBandwidth is the ICI bandwidth of one link in one direction,
	// bytes/s. Every torus axis provides one such link per direction per
	// neighbor.
	LinkBandwidth float64
	// LinkLatency is the per-hop transfer setup latency in seconds.
	LinkLatency float64

	// OpOverhead is the fixed per-instruction issue overhead in seconds.
	OpOverhead float64
	// MaxInFlight bounds concurrently outstanding asynchronous
	// collectives (the limited synchronization flags of §5.2).
	MaxInFlight int
}

// TPUv4 returns a TPU v4-like chip specification.
//
// The IR prices tensors at 4 bytes per element, but TPU training runs in
// bf16 (2 bytes); the memory and link bandwidths below are therefore
// doubled from their physical values (~1.2 TB/s HBM, ~45 GB/s per link
// direction) so that byte-count/bandwidth ratios match bf16 execution.
func TPUv4() Spec {
	return Spec{
		Name:             "tpu-v4",
		PeakFLOPS:        275e12, // bf16 MXU peak
		MatmulEfficiency: 0.88,
		EfficiencyKnee:   32, // near-full efficiency from ~256 elements up
		HBMBandwidth:     2.4e12,
		LinkBandwidth:    90e9,
		LinkLatency:      1e-6,
		OpOverhead:       0.8e-6,
		MaxInFlight:      8,
	}
}

// GPUCluster returns an A100-like GPU node specification for the §7.2
// generalization study: higher per-direction link bandwidth inside an
// NVLink island but a lower FLOP-to-bandwidth ratio than a TPU pod, so
// the overlap technique helps for the same reason with different
// crossover points. Bandwidths are doubled like TPUv4's (bf16 data on a
// 4-byte-element IR).
func GPUCluster() Spec {
	return Spec{
		Name:             "gpu-a100",
		PeakFLOPS:        312e12, // bf16 tensor-core peak
		MatmulEfficiency: 0.80,
		EfficiencyKnee:   48,
		HBMBandwidth:     4.0e12, // ~2 TB/s HBM2e, doubled
		LinkBandwidth:    250e9,  // NVLink-class per direction, doubled
		LinkLatency:      3e-6,   // kernel-launch/NCCL hop setup
		OpOverhead:       3e-6,
		MaxInFlight:      8,
	}
}

// Validate reports configuration errors: non-positive rates, negative
// latencies and overheads, and non-finite values — any of which would
// leak NaN/Inf (or negative times) into the cost model and simulator.
func (s Spec) Validate() error {
	finite := func(what string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("machine: %s %s %v is not finite", s.Name, what, v)
		}
		return nil
	}
	for _, f := range []struct {
		what string
		val  float64
	}{
		{"peak FLOP/s", s.PeakFLOPS},
		{"matmul efficiency", s.MatmulEfficiency},
		{"efficiency knee", s.EfficiencyKnee},
		{"HBM bandwidth", s.HBMBandwidth},
		{"link bandwidth", s.LinkBandwidth},
		{"link latency", s.LinkLatency},
		{"op overhead", s.OpOverhead},
	} {
		if err := finite(f.what, f.val); err != nil {
			return err
		}
	}
	if s.PeakFLOPS <= 0 {
		return fmt.Errorf("machine: %s peak FLOP/s %v must be positive", s.Name, s.PeakFLOPS)
	}
	if s.HBMBandwidth <= 0 {
		return fmt.Errorf("machine: %s HBM bandwidth %v must be positive", s.Name, s.HBMBandwidth)
	}
	if s.LinkBandwidth <= 0 {
		return fmt.Errorf("machine: %s link bandwidth %v must be positive", s.Name, s.LinkBandwidth)
	}
	if s.MatmulEfficiency <= 0 || s.MatmulEfficiency > 1 {
		return fmt.Errorf("machine: %s matmul efficiency %v outside (0,1]", s.Name, s.MatmulEfficiency)
	}
	if s.EfficiencyKnee < 0 {
		return fmt.Errorf("machine: %s efficiency knee %v must be non-negative", s.Name, s.EfficiencyKnee)
	}
	if s.LinkLatency < 0 {
		return fmt.Errorf("machine: %s link latency %v must be non-negative", s.Name, s.LinkLatency)
	}
	if s.OpOverhead < 0 {
		return fmt.Errorf("machine: %s op overhead %v must be non-negative", s.Name, s.OpOverhead)
	}
	if s.MaxInFlight <= 0 {
		return fmt.Errorf("machine: %s needs a positive async budget", s.Name)
	}
	return nil
}

// Fingerprint returns a stable textual identity of every parameter that
// influences modeled times, for keying tuned-decision caches: two specs
// with equal fingerprints price every program identically.
func (s Spec) Fingerprint() string {
	return fmt.Sprintf("name=%s flops=%g eff=%g knee=%g hbm=%g link=%g lat=%g ovh=%g inflight=%d",
		s.Name, s.PeakFLOPS, s.MatmulEfficiency, s.EfficiencyKnee,
		s.HBMBandwidth, s.LinkBandwidth, s.LinkLatency, s.OpOverhead, s.MaxInFlight)
}

// WithMatmulEfficiency returns a copy with the achieved-fraction-of-peak
// replaced, clamped into Validate's (0, 1] range.
func (s Spec) WithMatmulEfficiency(eff float64) Spec {
	if eff > 1 {
		eff = 1
	}
	if eff <= 0 || math.IsNaN(eff) {
		eff = 1e-6
	}
	s.MatmulEfficiency = eff
	return s
}

// WithLinkBandwidth returns a copy with the per-direction link bandwidth
// replaced; non-positive values are clamped to a minimal positive rate.
func (s Spec) WithLinkBandwidth(bw float64) Spec {
	if bw <= 0 || math.IsNaN(bw) {
		bw = 1
	}
	s.LinkBandwidth = bw
	return s
}

// WithOpOverhead returns a copy with the per-instruction issue overhead
// replaced; negative values are clamped to zero.
func (s Spec) WithOpOverhead(ovh float64) Spec {
	if ovh < 0 || math.IsNaN(ovh) {
		ovh = 0
	}
	s.OpOverhead = ovh
	return s
}

// Calibration rescales a Spec so that its modeled times track an
// observed execution: autotune fits these factors from measured runtime
// breakdowns (see internal/autotune). Each factor multiplies a
// *throughput*, so a factor below 1 makes the corresponding modeled time
// longer. The zero value is not a valid calibration; use Identity.
type Calibration struct {
	// ComputeScale multiplies the chip's effective compute throughput
	// (matmul units and HBM together).
	ComputeScale float64
	// WireScale multiplies the link bandwidth.
	WireScale float64
	// OverheadScale multiplies the per-instruction issue overhead (an
	// overhead is a time, so this one scales time directly).
	OverheadScale float64
}

// Identity returns the calibration that leaves a Spec unchanged.
func Identity() Calibration {
	return Calibration{ComputeScale: 1, WireScale: 1, OverheadScale: 1}
}

// Apply returns the spec rescaled by the calibration. Compute scaling
// raises MatmulEfficiency first and overflows into PeakFLOPS once the
// efficiency ceiling of 1 is reached, so the result always validates.
func (cal Calibration) Apply(s Spec) Spec {
	cs, ws, os := cal.ComputeScale, cal.WireScale, cal.OverheadScale
	clamp := func(v float64) float64 {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return 1
		}
		return v
	}
	cs, ws, os = clamp(cs), clamp(ws), clamp(os)

	eff := s.MatmulEfficiency * cs
	if eff > 1 {
		s.PeakFLOPS *= eff // overflow beyond the efficiency ceiling
		eff = 1
	}
	s = s.WithMatmulEfficiency(eff)
	s.HBMBandwidth *= cs
	s = s.WithLinkBandwidth(s.LinkBandwidth * ws)
	s = s.WithOpOverhead(s.OpOverhead * os)
	return s
}

// EinsumEfficiency returns the fraction of peak achieved by an einsum
// whose smallest participating dimension is minDim: the asymptotic
// MatmulEfficiency derated by a saturating knee curve.
func (s Spec) EinsumEfficiency(minDim int) float64 {
	if minDim <= 0 {
		return s.MatmulEfficiency
	}
	d := float64(minDim)
	return s.MatmulEfficiency * d / (d + s.EfficiencyKnee)
}

// EinsumTime returns the execution time of an einsum with the given FLOP
// count, memory traffic, and smallest dimension, as the roofline maximum
// of the compute and memory terms plus issue overhead.
func (s Spec) EinsumTime(flops, bytes int64, minDim int) float64 {
	compute := float64(flops) / (s.PeakFLOPS * s.EinsumEfficiency(minDim))
	memory := float64(bytes) / s.HBMBandwidth
	if memory > compute {
		compute = memory
	}
	return compute + s.OpOverhead
}

// MemoryTime returns the execution time of a memory-bound op touching
// the given number of bytes.
func (s Spec) MemoryTime(bytes int64) float64 {
	return float64(bytes)/s.HBMBandwidth + s.OpOverhead
}

// TransferTime returns the wire time of a point-to-point transfer of the
// given size across the given number of torus hops.
func (s Spec) TransferTime(bytes int64, hops int) float64 {
	if hops < 1 {
		hops = 1
	}
	return float64(hops)*s.LinkLatency + float64(bytes)/s.LinkBandwidth
}

// RingAllGatherTime returns the wire time of a bandwidth-optimal
// bidirectional-ring AllGather producing fullBytes on each of g devices:
// each device receives (g-1)/g of the result over two link directions.
func (s Spec) RingAllGatherTime(fullBytes int64, g int) float64 {
	if g <= 1 {
		return 0
	}
	recv := float64(fullBytes) * float64(g-1) / float64(g)
	return recv/(2*s.LinkBandwidth) + float64(g-1)*s.LinkLatency
}

// RingReduceScatterTime returns the wire time of a bidirectional-ring
// ReduceScatter over per-device inputs of inputBytes across g devices.
func (s Spec) RingReduceScatterTime(inputBytes int64, g int) float64 {
	if g <= 1 {
		return 0
	}
	sent := float64(inputBytes) * float64(g-1) / float64(g)
	return sent/(2*s.LinkBandwidth) + float64(g-1)*s.LinkLatency
}

// RingAllReduceTime returns the wire time of a ReduceScatter+AllGather
// AllReduce over per-device inputs of bytes across g devices.
func (s Spec) RingAllReduceTime(bytes int64, g int) float64 {
	return s.RingReduceScatterTime(bytes, g) + s.RingAllGatherTime(bytes, g)
}

// AllToAllTime returns the wire time of a ring AllToAll of per-device
// inputs of bytes across g devices: each device ships (g-1)/g of its
// data an average of g/4 hops in each direction.
func (s Spec) AllToAllTime(bytes int64, g int) float64 {
	if g <= 1 {
		return 0
	}
	sent := float64(bytes) * float64(g-1) / float64(g)
	return sent*float64(g)/(8*s.LinkBandwidth) + float64(g-1)*s.LinkLatency
}

// CollectiveTime returns the wire time of a blocking collective
// instruction, dispatching on its opcode. Non-collective instructions
// return 0.
func (s Spec) CollectiveTime(in *hlo.Instruction) float64 {
	g := 1
	if len(in.Groups) > 0 {
		g = len(in.Groups[0])
	}
	switch in.Op {
	case hlo.OpAllGather:
		return s.RingAllGatherTime(in.ByteSize(), g)
	case hlo.OpReduceScatter:
		return s.RingReduceScatterTime(in.Operands[0].ByteSize(), g)
	case hlo.OpAllReduce:
		return s.RingAllReduceTime(in.ByteSize(), g)
	case hlo.OpAllToAll:
		return s.AllToAllTime(in.ByteSize(), g)
	case hlo.OpCollectivePermute:
		return s.TransferTime(in.ByteSize(), 1)
	}
	return 0
}

// InstructionCost returns the local (on-chip) execution time of an
// instruction: einsums through the roofline, data-movement ops through
// the memory term, and free ops (parameters, constants, async starts)
// as zero. Collectives' wire time is modeled separately by the
// simulator; their local cost here is only issue overhead.
func (s Spec) InstructionCost(in *hlo.Instruction) float64 {
	switch in.Op {
	case hlo.OpParameter, hlo.OpConstant, hlo.OpTuple:
		return 0
	case hlo.OpZero:
		// Accumulator initialization: buffer allocation, zero-filled
		// lazily by the first writer.
		return 0
	case hlo.OpDynamicUpdateSlice:
		// In-place region update: read the update, write the region.
		return s.MemoryTime(2 * in.Operands[1].ByteSize())
	case hlo.OpCollectivePermuteStart, hlo.OpCollectivePermuteDone:
		return 0 // wire time handled by the simulator
	case hlo.OpAllGather, hlo.OpReduceScatter, hlo.OpAllReduce, hlo.OpAllToAll, hlo.OpCollectivePermute:
		return s.OpOverhead
	case hlo.OpEinsum:
		flops, minDim := in.EinsumStats()
		bytes := in.ByteSize()
		for _, op := range in.Operands {
			bytes += op.ByteSize()
		}
		return s.EinsumTime(flops, bytes, minDim)
	case hlo.OpFusion:
		return s.fusionCost(in)
	case hlo.OpLoop:
		// A rolled loop occupies the device for its whole (serial)
		// execution: TripCount times the body's local and wire costs.
		var per float64
		for i := 0; i < in.Body.NumInstructions(); i++ {
			inner := in.Body.At(i)
			per += s.InstructionCost(inner) + s.CollectiveTime(inner)
		}
		return float64(in.TripCount) * per
	case hlo.OpReshape:
		// Reshapes are free layout changes.
		return 0
	default:
		// Element-wise and data movement: read operands, write result.
		bytes := in.ByteSize()
		for _, op := range in.Operands {
			bytes += op.ByteSize()
		}
		return s.MemoryTime(bytes)
	}
}

// fusionCost prices a fused kernel: all inner einsum FLOPs against the
// matrix unit, but memory traffic only for the fusion's external inputs
// and output — the benefit fusion exists to provide. A fusion rooted in
// a DynamicUpdateSlice chain updates its output buffer in place: only
// the updated regions are written and the aliased base buffer is not
// re-read.
func (s Spec) fusionCost(in *hlo.Instruction) float64 {
	var flops int64
	minDim := 0
	var dusWrite int64
	aliasedBases := map[*hlo.Instruction]bool{}
	for i := 0; i < in.Body.NumInstructions(); i++ {
		inner := in.Body.At(i)
		switch inner.Op {
		case hlo.OpEinsum:
			f, m := inner.EinsumStats()
			flops += f
			if minDim == 0 || m < minDim {
				minDim = m
			}
		case hlo.OpDynamicUpdateSlice:
			dusWrite += inner.Operands[1].ByteSize()
			aliasedBases[inner.Operands[0]] = true
		}
	}
	rootIsDUS := in.Body.Root().Op == hlo.OpDynamicUpdateSlice
	var bytes int64
	if rootIsDUS {
		bytes += dusWrite
	} else {
		bytes += in.ByteSize()
	}
	params := in.Body.Parameters()
	for i, op := range in.Operands {
		if rootIsDUS && i < len(params) && aliasedBases[params[i]] {
			continue // in-place alias of the output buffer
		}
		bytes += op.ByteSize()
	}
	if flops == 0 {
		return s.MemoryTime(bytes)
	}
	return s.EinsumTime(flops, bytes, minDim)
}
