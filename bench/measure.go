package main

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"overlap/internal/obs"
	"overlap/internal/tensor"
)

// sample is one measured op: the caller-observed wall time and whether
// the op failed (error, non-200, wrong output, or a digest that changed
// between repeats of the same input).
type sample struct {
	ms     float64
	failed bool
}

// runner is one set-up workload instance. newRunner does everything up
// to the first measured op (program build, core.Apply, plan compiles,
// server start, warm-up ops); segment then runs n ops and returns one
// sample each. With a non-nil recorder the ops are traced: spans around
// every call into a layer, layer observations, counter deltas.
type runner interface {
	segment(n int, rec *recorder) []sample
	close()
}

// host records the facts a number needs to be read: cores, scheduler
// and kernel parallelism, toolchain, commit, and the workload seed.
type host struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	KernelWorkers int    `json:"kernel_workers"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	Seed          int64  `json:"seed"`
}

func hostFacts(seed int64) host {
	return host{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		KernelWorkers: tensor.KernelWorkers(),
		GoVersion:     runtime.Version(),
		Commit:        commit(),
		Seed:          seed,
	}
}

// commit names the source the numbers belong to: the revision the build
// was stamped with, or, under `go run`, which stamps none, what git says
// of the working directory; "-dirty" marks uncommitted changes. Outside
// a git checkout it is "unknown".
func commit() string {
	rev, dirty := "", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		out, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		dirty = err != nil || len(status) > 0
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// metric is one reported value. Segments holds the per-segment values
// of the measured pass (or the individual set-up times for setup_s) and
// Spread their (max-min)/median, so a reader can tell noise from
// change: -compare calls a change no larger than the spread unresolved.
type metric struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	Segments   []float64 `json:"segments,omitempty"`
	Spread     float64   `json:"segment_spread,omitempty"`
	NA         bool      `json:"na,omitempty"`
	Unverified bool      `json:"unverified_on_host,omitempty"`
}

// spread returns (max-min)/median of v; 0 for fewer than two values.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med <= 0 {
		return 0
	}
	return (slices.Max(v) - slices.Min(v)) / med
}

// result is what one pass of one workload produced: the native form
// written to <out>/<workload>[.traced].json, a superset of the line the
// driver contract reads.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

// segmentStats is what one segment of the measured pass (or several,
// merged) recorded.
type segmentStats struct {
	lat       []float64 // per-op wall time, ms
	wall, cpu float64   // seconds
	alloc     uint64    // bytes
	peakMiB   float64   // RSS high-water mark
}

func merge(segs []segmentStats) segmentStats {
	var all segmentStats
	for _, sg := range segs {
		all.lat = append(all.lat, sg.lat...)
		all.wall += sg.wall
		all.cpu += sg.cpu
		all.alloc += sg.alloc
		all.peakMiB = max(all.peakMiB, sg.peakMiB)
	}
	return all
}

func (sg segmentStats) ops() float64 { return float64(len(sg.lat)) }

// The four timing metrics, as both passes compute them: the untraced
// pass reports them as op_ms_p50, op_ms_p90, ops_per_s and
// cpu_ms_per_op, the traced pass as bench.* over its untraced ops.
var timingMetrics = []struct {
	name, unit string
	of         func(segmentStats) float64
}{
	{"op_ms_p50", "ms", func(sg segmentStats) float64 { return median(sg.lat) }},
	{"op_ms_p90", "ms", func(sg segmentStats) float64 { return percentile(sg.lat, 0.9) }},
	{"ops_per_s", "1/s", func(sg segmentStats) float64 { return sg.ops() / sg.wall }},
	{"cpu_ms_per_op", "ms", func(sg segmentStats) float64 { return sg.cpu * 1e3 / sg.ops() }},
}

func allocKBPerOp(sg segmentStats) float64 { return float64(sg.alloc) / 1024 / sg.ops() }

// tally counts a segment's samples into the result and returns their
// latencies.
func (res *result) tally(samples []sample) []float64 {
	lat := make([]float64, len(samples))
	for i, sm := range samples {
		lat[i] = sm.ms
		if sm.failed {
			res.Failed++
		}
	}
	res.Attempted += len(samples)
	res.Correct = res.Failed == 0
	return lat
}

// measure runs the untraced measured pass: set the workload up, run
// the segments, and only then set up again (w.setups times in all) so
// that setup_s is a median.
func measure(w workloadSpec, seed int64) (*result, error) {
	t0 := time.Now()
	r, err := newRunner(w, w.ops, seed, nil)
	if err != nil {
		return nil, err
	}
	setupTimes := []float64{time.Since(t0).Seconds()}
	// Set-up garbage (the interpreter's and the naive check's tensors)
	// is collected and handed back before the pass, not at some point
	// during it: left in place it decided peak_rss_mb, in 16 MiB steps
	// that depended on where the collector happened to be.
	debug.FreeOSMemory()

	segs := make([]segmentStats, passSegments)
	res := &result{Workload: w.Name, Host: hostFacts(seed), Metrics: map[string]metric{}}
	for i := range segs {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		resetPeakRSS()
		c0, t0 := cpuSeconds(), time.Now()
		samples := r.segment(w.ops/passSegments, nil)
		segs[i].wall, segs[i].cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
		segs[i].peakMiB = peakRSSMiB()
		runtime.ReadMemStats(&m1)
		segs[i].alloc = m1.TotalAlloc - m0.TotalAlloc
		segs[i].lat = res.tally(samples)
	}
	r.close()
	for i := 1; i < w.setups; i++ {
		t0 := time.Now()
		again, err := newRunner(w, w.ops, seed, nil)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		again.close()
	}

	all := merge(segs)
	report := func(name, unit string, of func(segmentStats) float64) {
		m := metric{Value: of(all), Unit: unit}
		for _, sg := range segs {
			m.Segments = append(m.Segments, of(sg))
		}
		if !w.once {
			m.Spread = spread(m.Segments)
		}
		res.Metrics[name] = m
	}
	for _, tm := range timingMetrics {
		report(tm.name, tm.unit, tm.of)
	}
	report("alloc_kb_per_op", "KiB", allocKBPerOp)
	// The first set-up is the only cold one (page cache, allocator
	// growth); the spread is over the repeats, which are comparable.
	res.Metrics["setup_s"] = metric{Value: median(setupTimes), Unit: "s", Segments: setupTimes, Spread: spread(setupTimes[1:])}
	report("peak_rss_mb", "MiB", func(sg segmentStats) float64 { return sg.peakMiB })
	res.Metrics["fail_frac"] = metric{Value: float64(res.Failed) / all.ops(), Unit: "ratio"}
	return res, nil
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the nearest-rank percentile of v (the median
// averages the two middle values of an even sample).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// resetPeakRSS sets the kernel's high-water mark for this process back
// to its current RSS, so that the next peakRSSMiB reads the peak since
// now. Where that cannot be done the mark stays the process's own, and
// peak_rss_mb includes set-up.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMiB reads the process's VmHWM; 0 where /proc is absent.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// counters is a point-in-time reading of the program's own telemetry
// (obs.Default()): counters and gauges by value, histograms as
// name+"_sum" and name+"_count".
type counters map[string]float64

func readCounters() counters {
	c := counters{}
	for _, m := range obs.Default().Snapshot() {
		if m.Type == "histogram" {
			c[m.Name+"_sum"] = m.Sum
			c[m.Name+"_count"] = float64(m.Count)
			continue
		}
		c[m.Name] = m.Value
	}
	return c
}

// since returns now-then for every counter.
func (c counters) since(then counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - then[k]
	}
	return d
}

// timeMS runs f reps times and returns the median wall time in
// milliseconds.
func timeMS(reps int, f func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		f()
		times[i] = time.Since(t0).Seconds() * 1e3
	}
	return median(times)
}
