package serve

import "overlap/internal/obs"

// Serving-side instrumentation handles, resolved once against the
// process-wide registry. The overlap_serve_* family answers the
// operational questions a long-running daemon gets asked: how well do
// requests coalesce, how often does the hot path skip compilation, how
// long do runs wait for an admission slot, and where each request's
// latency went.
var (
	svRequests = obs.Default().Counter("overlap_serve_requests_total",
		"Requests accepted by the daemon (all endpoints that reach a handler).")
	svErrors = obs.Default().Counter("overlap_serve_errors_total",
		"Requests that ended in an error response (4xx or 5xx).")
	svRunErrors = obs.Default().Counter("overlap_serve_run_errors_total",
		"Served runs that failed with a structured runtime error (503, daemon stays up; also counted in overlap_serve_errors_total).")
	svOverload = obs.Default().Counter("overlap_serve_overload_total",
		"Requests rejected with 503 because MaxPending requests were already pending.")
	svPlanHits = obs.Default().Counter("overlap_serve_plan_cache_hits_total",
		"Plan acquisitions answered by the in-memory plan cache (zero compilation).")
	svPlanMisses = obs.Default().Counter("overlap_serve_plan_cache_misses_total",
		"Plan acquisitions that started their request key's compile: a lookup of a body held under another name, a read of the disk tier, or a search.")
	svPlanCoalesced = obs.Default().Counter("overlap_serve_plan_coalesced_total",
		"Plan acquisitions that joined a compile already in flight for the same request key.")
	svPlanEvictions = obs.Default().Counter("overlap_serve_plan_cache_evictions_total",
		"Program bodies evicted from the in-memory plan cache, each with every name and shape that aliased it.")
	svCompiles = obs.Default().Counter("overlap_serve_compiles_total",
		"Compile closures run, one per plan cache miss: a held body's lookup, a disk-tier read, or a search; the warm path keeps this flat.")
	svInflight = obs.Default().Gauge("overlap_serve_inflight_runs",
		"Runs currently holding an admission slot.")
	svAdmissionWait = obs.Default().Histogram("overlap_serve_admission_wait_seconds",
		"Time served runs waited for an admission slot.", obs.TimeBuckets())
	svPlanSeconds = obs.Default().Histogram("overlap_serve_plan_seconds",
		"Time from plan lookup to plan availability (zero-ish on cache hits).", obs.TimeBuckets())
	svRunSeconds = obs.Default().Histogram("overlap_serve_run_seconds",
		"Wall-clock of the runtime execution phase of served runs.", obs.TimeBuckets())
	svFailedRunSeconds = obs.Default().Histogram("overlap_serve_failed_run_seconds",
		"End-to-end latency of served runs that failed (plan + admission + run until abort).",
		obs.TimeBuckets())
	svTracesRecorded = obs.Default().Counter("overlap_serve_traces_recorded_total",
		"Run traces recorded into the flight recorder.")
	svTraceEvictions = obs.Default().Counter("overlap_serve_trace_evictions_total",
		"Run traces dropped when the flight-recorder ring wrapped (kept-set survivors excluded).")
)
