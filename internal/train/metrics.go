package train

import "overlap/internal/obs"

// Training-step telemetry, resolved once against the process-wide
// registry like the runtime's own handles. The executor updates them
// per step; exporters and the live /metrics endpoint pick them up with
// every other overlap_* family.
var (
	trSteps = obs.Default().Counter("overlap_train_steps_total",
		"Training steps executed on the goroutine runtime.")
	trChecks = obs.Default().Counter("overlap_train_checks_total",
		"Training steps cross-checked bitwise against the lockstep interpreter.")
	trLoss = obs.Default().Gauge("overlap_train_loss",
		"Global loss (summed over devices) of the most recent training step.")
	trStepSeconds = obs.Default().Histogram("overlap_train_step_seconds",
		"Executed step time of training steps, replayed from the runtime's per-op costs (measured compute, modeled wire).", obs.TimeBuckets())
	trGradBuckets = obs.Default().Gauge("overlap_train_grad_buckets",
		"Gradient buckets the bucketing pass formed for the current program.")
	trGradBucketBytes = obs.Default().Gauge("overlap_train_grad_bucket_bytes",
		"Configured gradient bucket-size bound in bytes (0 = bucketing off).")
	trGradWireSeconds = obs.Default().Gauge("overlap_train_grad_wire_seconds",
		"Total collective wire seconds of the last attributed training step.")
	trGradHiddenSeconds = obs.Default().Gauge("overlap_train_grad_hidden_seconds",
		"Wire seconds of the last attributed training step hidden under backward compute.")
)
