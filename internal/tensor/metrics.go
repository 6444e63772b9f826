package tensor

import (
	"time"

	"overlap/internal/obs"
)

// Kernel-engine telemetry, resolved once against the process-wide
// registry. The executors run many small einsums per step, so every
// handle here is an allocation-free atomic (see internal/obs); the
// per-kernel timer is skipped entirely while recording is disabled.
var (
	kernelGemmOps = obs.Default().Counter("overlap_kernel_gemm_total",
		"Einsum executions lowered to the blocked GEMM kernel.")
	kernelFallbackOps = obs.Default().Counter("overlap_kernel_fallback_total",
		"Einsum executions on the odometer reference path (spec did not lower to GEMM).")
	kernelAccumOps = obs.Default().Counter("overlap_kernel_fused_accumulate_total",
		"Fused EinsumAddInto executions (no partial-result temporary materialized).")
	kernelPoolReusedBytes = obs.Default().Counter("overlap_kernel_pool_reused_bytes_total",
		"Scratch bytes served from the kernel buffer pool.")
	kernelPoolFreshBytes = obs.Default().Counter("overlap_kernel_pool_fresh_bytes_total",
		"Scratch bytes freshly allocated on kernel buffer-pool misses.")
	kernelSpanSeconds = obs.Default().Histogram("overlap_kernel_span_seconds",
		"Wall-clock duration of individual einsum kernel executions.", obs.TimeBuckets())
	kernelPackBytes = obs.Default().Counter("overlap_kernel_pack_bytes_total",
		"Operand bytes permute-packed into kernel scratch (layouts no kernel reads in place).")
	kernelSplitKOps = obs.Default().Counter("overlap_kernel_splitk_total",
		"GEMM executions on the deterministic split-K tree-reduction path.")
)

// kernelTimerStart returns the start timestamp of one kernel execution
// and whether timing is on; kernelTimerEnd records the span. Split into
// two plain calls (rather than a returned closure) so the hot path
// stays allocation-free.
func kernelTimerStart() (time.Time, bool) {
	if !obs.Default().Enabled() {
		return time.Time{}, false
	}
	return time.Now(), true
}

func kernelTimerEnd(t0 time.Time, timed bool) {
	if timed {
		kernelSpanSeconds.Observe(time.Since(t0).Seconds())
	}
}
