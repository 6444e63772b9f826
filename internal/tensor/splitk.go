package tensor

// Deterministic split-K tree reduction for skinny GEMMs.
//
// The decomposed loop's partial einsums have small M (one shard of the
// output rows) against a large contraction K, so the row-partitioned
// worker path has almost nothing to split — at M = 1 it is fully
// serial no matter how many workers are available. Split-K partitions
// the contraction instead: the K axis is cut into S fixed ranges
// (boundaries s·K/S, a function of the shape and the configured factor
// only), each range is accumulated into a private zeroed accumulator
// in ascending-k order, and the partials are combined by a binary tree
// whose shape depends only on S:
//
//	gap = 1, 2, 4, ...:  part[i] += part[i+gap]  for i = 0, 2·gap, ...
//
// followed by one elementwise fold of part[0] onto the caller's
// accumulator. Workers only decide which goroutine computes which
// range — never the ranges, the tree, or any accumulation order — so
// for a fixed factor the result bytes are identical at every worker
// count and on every run. The factor itself is a *planned* decision
// (core.Options.KernelSplitK, searched by the autotuner): different
// factors legitimately round differently because the tree reassociates
// the contraction, exactly like the paper's decomposition reassociates
// the collective's reduction. Factor 0/1 keeps the engine on the
// row/column paths, which accumulate each element start-to-finish in
// ascending k and are therefore byte-identical to einsumReference.

const (
	// splitKMaxRows: above this many output rows the row partition
	// already feeds the pool, and splitting K would only buy the tree's
	// extra rounding and memory traffic.
	splitKMaxRows = 64
	// splitKMinChunk: each K range must be at least this long, or the
	// per-range dispatch and combine overhead dominates the work.
	splitKMinChunk = 16
	// splitKMinFlops: below this total work even a serial kernel
	// finishes faster than the partial buffers can be zeroed.
	splitKMinFlops = 1 << 16
)

// splitFactor returns the effective split-K factor for a GEMM with the
// given output rows and extents: the requested factor when the shape
// is skinny enough to benefit, otherwise 0. Deliberately independent of the worker
// count — eligibility must not change result bytes, and the worker
// count must never change results at all.
func splitFactor(rows, K, N, splitK int) int {
	s := clampSplitK(splitK)
	if s < 2 || rows >= splitKMaxRows || K < s*splitKMinChunk {
		return 0
	}
	if 2*int64(rows)*int64(K)*int64(N) < splitKMinFlops {
		return 0
	}
	return s
}

// gemmSplitK executes C[g,i,j] += sum_k A[g,i,k]·B[g,k,j] by
// partitioning K into s ranges with private accumulators and combining
// them in the fixed binary tree described above. Each range is one call
// of the kernels the unsplit GEMM runs (gemmOperands.block), so an
// operand read in place stays in place at every factor.
func gemmSplitK(c []float64, g gemmOperands, s, workers int, sc *Stash) {
	out := g.B * g.M * g.N
	j := getJob(fanSplitK, nil, g)
	j.s = s
	parts := j.parts[:s]
	for i := range parts {
		parts[i] = sc.getZeroBuf(out)
	}
	j.fanOut(s, workers)
	for gap := 1; gap < s; gap *= 2 {
		for i := 0; i+gap < s; i += 2 * gap {
			addInto(*parts[i], *parts[i+gap])
		}
	}
	addInto(c[:out], *parts[0])
	for _, p := range parts {
		sc.putBuf(p)
	}
	putJob(j)
	kernelSplitKOps.Inc()
}

// addInto folds src into dst elementwise in ascending index order.
func addInto(dst, src []float64) {
	_ = dst[len(src)-1]
	for j, v := range src {
		dst[j] += v
	}
}
