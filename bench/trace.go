package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Layer names spans carry. The traced op's wall time decomposes into
// these by self time; what no child covers stays with the op's own
// "bench" span and is reported as share.unaccounted.
const (
	layerBench   = "bench"
	layerTensor  = "tensor"
	layerWire    = "wire"
	layerRuntime = "runtime"
	layerServe   = "serve"
	layerCompile = "compile" // autotune + sim + core: everything a cold plan costs
	layerTrain   = "train"
	layerObs     = "obs"
)

// span is one timed interval the benchmark recorded around a call into
// a layer. Times are microseconds from the recorder's epoch. Reported
// marks a span the benchmark did not time itself but placed from the
// program's own report of the call (a Result.Trace event, a response's
// timing_ms stage); Async marks one that ran concurrently with its
// siblings (a transfer-engine event) and therefore takes no part in its
// parent's self time.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = none
	Op       int     `json:"op"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	Reported bool    `json:"reported,omitempty"`
	Async    bool    `json:"async,omitempty"`
}

// recorder is the traced pass's in-memory log: spans, per-metric
// observations, and notes. Both serve clients write to it, so it locks.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	obs   map[string][]float64
	nextO int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), obs: map[string][]float64{}}
}

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.epoch)) / 1e3 }

// newOp returns a fresh op id; every span of one op shares it.
func (r *recorder) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextO++
	return r.nextO
}

// add records a finished span and returns its id.
func (r *recorder) add(op, parent int, layer, name string, start, end time.Time) int {
	return r.addUS(span{Op: op, Parent: parent, Layer: layer, Name: name, StartUS: r.us(start), EndUS: r.us(end)})
}

func (r *recorder) addUS(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// timed runs f inside a span.
func (r *recorder) timed(op, parent int, layer, name string, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.add(op, parent, layer, name, t0, t1)
	return t1.Sub(t0).Seconds() * 1e3
}

// observe appends one observation of a per-layer metric; the reported
// value is the median of its observations unless summarize says
// otherwise.
func (r *recorder) observe(name string, v float64) {
	r.mu.Lock()
	r.obs[name] = append(r.obs[name], v)
	r.mu.Unlock()
}

// selfTimes returns, per layer, the total self time (microseconds) of
// every span that descends from a "bench" root span, and the total
// duration of those roots. A span's self time is its duration minus
// the part of it its non-async children cover.
func (r *recorder) selfTimes() (map[string]float64, float64) {
	children := map[int][]span{}
	byID := map[int]span{}
	for _, s := range r.spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	inOp := func(s span) bool {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.Layer == layerBench
	}
	self := map[string]float64{}
	total := 0.0
	for _, s := range r.spans {
		if s.Async || !inOp(s) {
			continue
		}
		if s.Parent == 0 {
			total += s.EndUS - s.StartUS
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, cursor := 0.0, s.StartUS
		for _, k := range kids {
			if k.Async {
				continue
			}
			lo, hi := max(k.StartUS, cursor), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.Layer] += s.EndUS - s.StartUS - covered
	}
	return self, total
}

// writeTrace dumps the spans and the per-layer self-time table to path.
func (r *recorder) writeTrace(path string, res *result) error {
	self, total := r.selfTimes()
	selfMS := map[string]float64{}
	for layer, us := range self {
		selfMS[layer] = us / 1e3
	}
	data, err := json.Marshal(struct {
		Workload    string             `json:"workload"`
		Host        host               `json:"host"`
		OpTotalMS   float64            `json:"op_total_ms"`
		LayerSelfMS map[string]float64 `json:"layer_self_ms"`
		Spans       []span             `json:"spans"`
	}{res.Workload, res.Host, total / 1e3, selfMS, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
