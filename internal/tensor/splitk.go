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
// them in the fixed binary tree described above.
func gemmSplitK(c, a, b []float64, B, M, K, N, s, workers int) {
	rows := B * M
	out := rows * N
	parts := make([]*[]float64, s)
	for i := range parts {
		parts[i] = getZeroBuf(out)
	}
	parallelRows(s, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k0, k1 := i*K/s, (i+1)*K/s
			gemmChunk(*parts[i], a, b, B, M, K, N, k0, k1)
		}
	})
	for gap := 1; gap < s; gap *= 2 {
		for i := 0; i+gap < s; i += 2 * gap {
			addInto(*parts[i], *parts[i+gap])
		}
	}
	addInto(c[:out], *parts[0])
	for _, p := range parts {
		putBuf(p)
	}
	kernelSplitKOps.Inc()
}

// gemmChunk accumulates the K-range [k0, k1) of every output row into
// dst (rows laid out as the output, one row per M·N block). Within the
// range each element accumulates in ascending k, reusing the 4-row
// B-panel kernel where M allows.
func gemmChunk(dst, a, b []float64, B, M, K, N, k0, k1 int) {
	kLen := k1 - k0
	if kLen <= 0 || N == 0 {
		return
	}
	for g := 0; g < B; g++ {
		bmat := b[g*K*N+k0*N : g*K*N+k1*N]
		i := 0
		for ; i+4 <= M; i += 4 {
			r := g*M + i
			gemm4Rows(dst[r*N:(r+4)*N], a[r*K+k0:], bmat, kLen, K, N)
		}
		for ; i < M; i++ {
			r := g*M + i
			gemmRow(dst[r*N:(r+1)*N], a[r*K+k0:r*K+k0+kLen], bmat, kLen, N)
		}
	}
}

// addInto folds src into dst elementwise in ascending index order.
func addInto(dst, src []float64) {
	_ = dst[len(src)-1]
	for j, v := range src {
		dst[j] += v
	}
}
