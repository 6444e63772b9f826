package sim

import (
	"fmt"

	"overlap/internal/obs"
)

// Simulator-side instrumentation handles, resolved once against the
// process-wide registry so the per-instruction hot path is a single
// atomic update.
var (
	simInstructions = obs.Default().Counter("overlap_sim_instructions_total",
		"Instructions executed by the discrete-event timing simulator (loop bodies counted per iteration).")
)

// Record publishes the breakdown into the process-wide metrics registry
// under the given scope ("sim" for simulated breakdowns, "runtime" for
// measured ones). It is the single reporting path every executor feeds:
// one run counter, a step-time histogram, last-run gauges for each
// component, and cumulative async-transfer counts, all named
// overlap_<scope>_*.
func (b Breakdown) Record(scope string) {
	r := obs.Default()
	name := func(suffix string) string { return fmt.Sprintf("overlap_%s_%s", scope, suffix) }
	r.Counter(name("runs_total"), "Executions recorded under this scope.").Inc()
	r.Histogram(name("step_seconds"), "Step-time distribution across runs.", obs.TimeBuckets()).Observe(b.StepTime)
	r.Gauge(name("last_step_seconds"), "Step time of the most recent run.").Set(b.StepTime)
	r.Gauge(name("last_compute_seconds"), "Per-device average compute time of the most recent run.").Set(b.Compute)
	r.Gauge(name("last_wire_seconds"), "Per-device average collective wire time of the most recent run.").Set(b.CollectiveWire)
	r.Gauge(name("last_exposed_seconds"), "Per-device average exposed communication of the most recent run.").Set(b.Exposed)
	r.Gauge(name("last_comm_fraction"), "Exposed communication fraction of the most recent run.").Set(b.CommFraction())
	r.Counter(name("async_transfers_total"), "Asynchronous transfers initiated per device, accumulated across runs.").Add(float64(b.AsyncTransfers))
	r.Gauge(name("last_peak_in_flight"), "Peak outstanding asynchronous transfers of the most recent run.").Set(float64(b.PeakInFlight))
}

// Spans is the identity: executors and the simulator record obs.Span
// directly. It survives only because the frozen bench/ calls it; the
// next benchmark PR drops it.
func Spans(spans []obs.Span) []obs.Span { return spans }

// Attribute is obs.Attribute. It survives only because the frozen
// bench/ calls it; the next benchmark PR drops it.
func Attribute(spans []obs.Span) obs.AttributionReport { return obs.Attribute(spans) }
