package sim

import (
	"fmt"
	"sync"

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
// overlap_<scope>_*. A scope's metrics appear on its first Record, and
// every later one updates the handles that call resolved.
func (b Breakdown) Record(scope string) {
	m := scopeMetricsFor(scope)
	m.runs.Inc()
	m.stepSeconds.Observe(b.StepTime)
	m.lastStep.Set(b.StepTime)
	m.lastCompute.Set(b.Compute)
	m.lastWire.Set(b.CollectiveWire)
	m.lastExposed.Set(b.Exposed)
	m.lastCommFraction.Set(b.CommFraction())
	m.asyncTransfers.Add(float64(b.AsyncTransfers))
	m.lastPeakInFlight.Set(float64(b.PeakInFlight))
}

// scopeMetrics is one scope's Record handles, resolved against the
// registry once.
type scopeMetrics struct {
	runs, asyncTransfers                         *obs.Counter
	stepSeconds                                  *obs.Histogram
	lastStep, lastCompute, lastWire, lastExposed *obs.Gauge
	lastCommFraction, lastPeakInFlight           *obs.Gauge
}

// scopes holds the handles of every scope Record has seen; scopesMu
// guards it.
var (
	scopesMu sync.RWMutex
	scopes   = map[string]*scopeMetrics{}
)

// scopeMetricsFor returns scope's handles, registering them on the
// scope's first use.
func scopeMetricsFor(scope string) *scopeMetrics {
	scopesMu.RLock()
	m := scopes[scope]
	scopesMu.RUnlock()
	if m != nil {
		return m
	}
	scopesMu.Lock()
	defer scopesMu.Unlock()
	if m := scopes[scope]; m != nil {
		return m
	}
	r := obs.Default()
	name := func(suffix string) string { return fmt.Sprintf("overlap_%s_%s", scope, suffix) }
	m = &scopeMetrics{
		runs:             r.Counter(name("runs_total"), "Executions recorded under this scope."),
		stepSeconds:      r.Histogram(name("step_seconds"), "Step-time distribution across runs.", obs.TimeBuckets()),
		lastStep:         r.Gauge(name("last_step_seconds"), "Step time of the most recent run."),
		lastCompute:      r.Gauge(name("last_compute_seconds"), "Per-device average compute time of the most recent run."),
		lastWire:         r.Gauge(name("last_wire_seconds"), "Per-device average collective wire time of the most recent run."),
		lastExposed:      r.Gauge(name("last_exposed_seconds"), "Per-device average exposed communication of the most recent run."),
		lastCommFraction: r.Gauge(name("last_comm_fraction"), "Exposed communication fraction of the most recent run."),
		asyncTransfers:   r.Counter(name("async_transfers_total"), "Asynchronous transfers initiated per device, accumulated across runs."),
		lastPeakInFlight: r.Gauge(name("last_peak_in_flight"), "Peak outstanding asynchronous transfers of the most recent run."),
	}
	scopes[scope] = m
	return m
}

// Spans is the identity: executors and the simulator record obs.Span
// directly. It survives only because the frozen bench/ calls it; the
// next benchmark PR drops it.
func Spans(spans []obs.Span) []obs.Span { return spans }

// Attribute is obs.Attribute. It survives only because the frozen
// bench/ calls it; the next benchmark PR drops it.
func Attribute(spans []obs.Span) obs.AttributionReport { return obs.Attribute(spans) }
