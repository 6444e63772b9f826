package autotune

import "overlap/internal/obs"

// Tuner-side instrumentation handles, resolved once against the
// process-wide registry: how many searches ran, how often the plan
// store answered, how wide the candidate space was, how many runtime
// executions the searches paid for, and how well the fitted machine calibration tracks
// the measurements.
var (
	atTunes = obs.Default().Counter("overlap_autotune_tunes_total",
		"Autotune searches performed (cache hits included).")
	atCacheHits = obs.Default().Counter("overlap_autotune_cache_hits_total",
		"Tunes answered from a stored plan with zero executions.")
	atCacheMisses = obs.Default().Counter("overlap_autotune_cache_misses_total",
		"Tunes that had to search (no stored plan, a stale one, or the disk tier off).")
	atCandidates = obs.Default().Counter("overlap_autotune_candidates_total",
		"Candidates evaluated by the simulator ranking stage.")
	atExecutions = obs.Default().Counter("overlap_autotune_executions_total",
		"Candidate runs performed by tuning searches (repeats included, the clock's wire-free runs not); a stored plan and a held body run none.")
	atResidual = obs.Default().Gauge("overlap_autotune_calibration_residual",
		"RMS relative step-time error of the latest machine-calibration fit.")
	atCacheCorrupt = obs.Default().Counter("overlap_autotune_cache_corrupt_total",
		"Stored plan files that did not decode, or held another plan, and were treated as a miss.")
)
