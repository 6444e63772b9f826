package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"overlap"
	"overlap/internal/autotune"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/obs"
	"overlap/internal/serve"
)

// serveClients is the closed loop's width: two callers, each on its own
// keep-alive connection, each sending its next request only when the
// previous one has answered. The reference box has two cores, so the
// server never sees more in flight than it has cores to run.
const serveClients = 2

// modelNames are the eleven distinct Table 1/2 workloads.
var modelNames = []string{
	"GPT_1T", "Meena_500B", "MLPerf_200B", "T5_300B", "GLaM_1T", "BigSSL_10B",
	"GPT_32B", "GPT_64B", "GPT_128B", "GPT_256B", "GPT_512B",
}

// warmModels are the layer models of serve_warm's mix (the test trims
// it).
var warmModels = modelNames

// warmMix returns serve_warm's distinct requests, train plans first.
// The megatron compile is the only one whose winner can leave the
// process-global split-K factor at 2 (ApplyBest sets it, autotune.Key
// reads it), which changes the fingerprint of whatever is requested
// next; compiling it first bounds that drift to the ddp plan, where the
// set-up's second pass over the mix sees, counts and absorbs it.
func warmMix() (layer, trainReqs []serve.Request) {
	trainReqs = []serve.Request{
		{Model: "GPT_32B", Devices: 4, Dim: 8, Scenario: "train", Strategy: "megatron", Layers: 2},
		{Model: "T5_300B", Devices: 4, Dim: 8, Scenario: "train", Strategy: "ddp", Layers: 2},
	}
	for _, m := range warmModels {
		layer = append(layer, serve.Request{Model: m, Devices: 4, Dim: 8})
	}
	return layer, trainReqs
}

// coldList returns serve_cold's 54 fingerprints in canonical order.
// Training programs do not depend on the model name (train.FromModel
// keeps only the dimensions), so the ten train requests vary strategy,
// depth and dim instead.
func coldList() []serve.Request {
	var out []serve.Request
	for _, dim := range []int{4, 8} {
		for _, dev := range []int{2, 4} {
			for _, m := range modelNames {
				out = append(out, serve.Request{Model: m, Devices: dev, Dim: dim})
			}
		}
	}
	for _, strategy := range []string{"megatron", "ddp"} {
		for _, t := range []struct{ dim, layers int }{{2, 2}, {4, 1}, {4, 2}, {8, 1}, {8, 2}} {
			out = append(out, serve.Request{Model: "GPT_32B", Devices: 4, Dim: t.dim, Scenario: "train", Strategy: strategy, Layers: t.layers})
		}
	}
	return out
}

// coldWarmup is compiled once in serve_cold's set-up and is not in
// coldList: it pays the process's first-compile costs (thread pool,
// allocator growth) before the first measured fingerprint does.
var coldWarmup = serve.Request{Model: "GPT_32B", Devices: 4, Dim: 3, Check: true}

// serveRunner is one set-up serve_* workload: an in-process daemon on a
// real loopback listener, the two clients, and the op list.
type serveRunner struct {
	cold    bool
	srv     *serve.Server
	url     string
	clients [serveClients]*http.Client
	// ops is the request sequence of the whole pass; next is the cursor
	// segments advance. Warm: one POST per entry, pulled by whichever
	// client is free. Cold: each entry is sent by both clients at once.
	ops  []serve.Request
	next atomic.Int64

	mu           sync.Mutex
	digests      map[string]string          // fingerprint and seed → digest every repeat must equal
	fingerprints map[string]map[string]bool // request identity → fingerprints the server gave it
	setupPasses  int
	layr         *program
}

// reply is what the benchmark keeps of one /v1/run exchange.
type reply struct {
	status  int
	ms      float64
	start   time.Time
	end     time.Time
	body    serve.RunResponse
	errText string
}

// newServe starts the daemon and lays out a pass of total requests:
// serve_cold (never-seen fingerprints) or serve_warm (plans precompiled
// here).
func newServe(cold bool, total int, seed int64, rec *recorder) (*serveRunner, error) {
	if cold && total > serveClients*len(coldList()) {
		return nil, fmt.Errorf("serve: %d cold ops need more than the %d fingerprints there are", total, len(coldList()))
	}
	srv, err := overlap.NewServer(serve.Config{DisableDiskCache: true})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveRunner{
		cold: cold, srv: srv, url: "http://" + addr,
		digests: map[string]string{}, fingerprints: map[string]map[string]bool{},
	}
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	rng := rand.New(rand.NewSource(seed))
	// Two request seeds per run: enough for every (request, seed) pair
	// to repeat, so a digest that drifts is caught.
	seeds := []int64{2*seed + 1, 2*seed + 2}

	var rep serve.Request
	if s.cold {
		list := coldList()[:total/serveClients]
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		for i := range list {
			list[i].Seed = seeds[i%len(seeds)]
		}
		s.ops, rep = list, coldList()[0]
		warm := coldWarmup
		warm.Seed = seeds[0]
		if r := s.post(0, warm); s.failed(warm, r) {
			s.close()
			return nil, fmt.Errorf("serve: warm-up compile failed: status %d %s", r.status, r.errText)
		}
	} else {
		layer, trainReqs := warmMix()
		if err := s.precompile(rec, append(append([]serve.Request(nil), trainReqs...), layer...), seeds); err != nil {
			s.close()
			return nil, err
		}
		// Every 4th request is a train step; the order is shuffled.
		for i := 0; i < total; i++ {
			req := layer[i%len(layer)]
			if i%4 == 3 {
				req = trainReqs[(i/4)%len(trainReqs)]
			}
			req.Seed = seeds[rng.Intn(len(seeds))]
			s.ops = append(s.ops, req)
		}
		rng.Shuffle(len(s.ops), func(i, j int) { s.ops[i], s.ops[j] = s.ops[j], s.ops[i] })
		rep = layer[0]
	}
	if s.layr, err = layerProgram(rep); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// layerProgram rebuilds a layer request's computation the way the
// daemon's resolve does, for the standalone layer probes.
func layerProgram(req serve.Request) (*program, error) {
	cfg, err := models.ByName(req.Model)
	if err != nil {
		return nil, err
	}
	mini, err := models.Miniature(cfg, req.Devices, req.Dim)
	if err != nil {
		return nil, err
	}
	if _, err := models.BuildLayerStep(mini); err != nil {
		return nil, err
	}
	spec := machine.TPUv4()
	p := &program{
		build: func() *hlo.Computation {
			c, err := models.BuildLayerStep(mini)
			if err != nil {
				panic(err) // the same config built a moment ago
			}
			return c
		},
		pipeline: sitePipeline(spec), devices: req.Devices, spec: spec,
	}
	if err := p.compile(); err != nil {
		return nil, err
	}
	p.args = serve.Args(p.comp, 1)
	return p, nil
}

// precompile is serve_warm's set-up: pass 1 sends every distinct
// request once with "check": true, which compiles its plan and verifies
// the run bitwise against the interpreter; later passes replay the mix
// until one pass is all plan hits (at most four passes). A replay is
// needed at all only because of the split-K key drift described at
// warmMix; how many it took is reported as serve.setup_passes.
func (s *serveRunner) precompile(rec *recorder, mix []serve.Request, seeds []int64) error {
	for pass := 1; pass <= 4; pass++ {
		s.setupPasses = pass
		misses := 0
		for _, req := range mix {
			req.Check = pass == 1
			req.Seed = seeds[(pass-1)%len(seeds)]
			r := s.post(0, req)
			if s.failed(req, r) {
				return fmt.Errorf("serve: set-up request %s failed: status %d %s", identity(req), r.status, r.errText)
			}
			if r.body.Plan != "hit" {
				misses++
				if rec != nil {
					observeMiss(rec, r)
				}
			}
		}
		if pass > 1 && misses == 0 {
			break
		}
	}
	return nil
}

func (s *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// identity names a request independent of the fingerprint the server
// computes for it (which drifts with the ambient split-K factor).
func identity(req serve.Request) string {
	return fmt.Sprintf("%s/n%d/d%d/%s/%s/l%d", req.Model, req.Devices, req.Dim, req.Scenario, req.Strategy, req.Layers)
}

// exchange sends one request on a client's keep-alive connection and
// reads the whole answer, so the connection is reused.
func (s *serveRunner) exchange(client int, method, path string, body any) (status int, data []byte, start, end time.Time, err error) {
	var payload io.Reader
	if body != nil {
		encoded, _ := json.Marshal(body)
		payload = bytes.NewReader(encoded)
	}
	req, err := http.NewRequest(method, s.url+path, payload)
	if err != nil {
		return 0, nil, start, end, err
	}
	req.Header.Set("Content-Type", "application/json")
	start = time.Now()
	resp, err := s.clients[client].Do(req)
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	return status, data, start, time.Now(), err
}

func (s *serveRunner) post(client int, req serve.Request) reply {
	status, data, start, end, err := s.exchange(client, http.MethodPost, "/v1/run", req)
	r := reply{status: status, start: start, end: end, ms: end.Sub(start).Seconds() * 1e3}
	switch {
	case err != nil:
		r.errText = err.Error()
	case status != http.StatusOK:
		r.errText = string(data)
	default:
		if err := json.Unmarshal(data, &r.body); err != nil {
			r.errText = err.Error()
		}
	}
	return r
}

// failed applies the output checks to one reply: 200, a digest, the
// interpreter cross-check when it was asked for, and the same digest as
// every earlier run of the same fingerprint and seed. The digest is
// pinned per fingerprint, not per request: when the key drift makes the
// server recompile a request under a new fingerprint, the new plan may
// be a different winner that rounds differently, which is the drift's
// consequence, reported as serve.key_drift, not a wrong output.
func (s *serveRunner) failed(req serve.Request, r reply) bool {
	if r.status != http.StatusOK || r.errText != "" || r.body.Digest == "" || (req.Check && !r.body.Checked) {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	who := identity(req)
	if s.fingerprints[who] == nil {
		s.fingerprints[who] = map[string]bool{}
	}
	s.fingerprints[who][r.body.Fingerprint] = true
	id := fmt.Sprintf("%s/s%d", r.body.Fingerprint, req.Seed)
	if want, ok := s.digests[id]; ok {
		return want != r.body.Digest
	}
	s.digests[id] = r.body.Digest
	return false
}

func (s *serveRunner) segment(n int, rec *recorder) []sample {
	if s.cold {
		return s.coldSegment(n, rec)
	}
	out := make([][]sample, serveClients)
	limit := s.next.Load() + int64(n)
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				at := s.next.Add(1)
				if at > limit {
					s.next.Add(-1)
					return
				}
				req := s.ops[at-1]
				r := s.post(c, req)
				sm := sample{ms: r.ms, failed: s.failed(req, r)}
				out[c] = append(out[c], sm)
				if rec != nil && !sm.failed {
					s.record(rec, c, r, i%10 == 0)
				}
			}
		}()
	}
	wg.Wait()
	return append(out[0], out[1]...)
}

// coldSegment sends n/2 never-seen fingerprints, each from both clients
// at once. Client 0's request asks for the interpreter cross-check
// (there is no earlier digest to compare a cold fingerprint against);
// the two digests must agree, and the pair must not compile twice.
func (s *serveRunner) coldSegment(n int, rec *recorder) []sample {
	var out []sample
	for i := 0; i < n/serveClients; i++ {
		var reqs [serveClients]serve.Request
		var replies [serveClients]reply
		var wg sync.WaitGroup
		for c := range s.clients {
			reqs[c] = s.ops[s.next.Load()]
			reqs[c].Check = c == 0
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[c] = s.post(c, reqs[c])
			}()
		}
		wg.Wait()
		s.next.Add(1)
		misses := 0
		for c, r := range replies {
			out = append(out, sample{ms: r.ms, failed: s.failed(reqs[c], r)})
			if r.body.Plan == "miss" {
				misses++
			}
		}
		if misses != 1 {
			// Singleflight broke (two compiles) or the fingerprint was
			// not new (none): the pair did not do the work the op is.
			out[len(out)-1].failed, out[len(out)-2].failed = true, true
		}
		if rec != nil {
			for c, r := range replies {
				if r.status == http.StatusOK {
					s.record(rec, c, r, c == 0 && i%5 == 0)
				}
			}
		}
	}
	return out
}

// record logs one traced exchange: the timed POST span, the server's
// own stage report placed beneath it, the stage and runtime
// observations, and (for one op in ten) the flight recorder's read
// side: GET /v1/runs/{id} of the run just served.
func (s *serveRunner) record(rec *recorder, client int, r reply, fetchTrace bool) {
	op := rec.newOp()
	root := rec.add(op, 0, layerBench, "op", r.start, r.end)
	call := rec.add(op, root, layerServe, "POST /v1/run", r.start, r.end)

	t, b := r.body.TimingMS, r.body.BreakdownMS
	// The server reports durations, not timestamps: the four stages are
	// laid end to end, flush with the reply. What precedes them inside
	// the POST span (HTTP, JSON, digest, trace recording, on both sides)
	// stays as the serve layer's self time.
	stages := []struct {
		layer, name string
		ms          float64
	}{{layerServe, "queue", t.Queue}, {layerCompile, "plan", t.Plan}, {layerServe, "admission", t.Admission}, {layerRuntime, "run", t.Run}}
	cursor := rec.us(r.end) - (t.Queue+t.Plan+t.Admission+t.Run)*1e3
	for _, st := range stages {
		id := rec.addUS(span{Op: op, Parent: call, Layer: st.layer, Name: st.name, StartUS: cursor, EndUS: cursor + st.ms*1e3, Reported: true})
		if st.name == "run" {
			// Per-device averages, laid end to end inside the run stage:
			// compute, then the part of the communication wait the
			// injected wire accounts for; the rest of the stage is the
			// runtime's (peer waits, interpreter overhead, set-up).
			onWire := min(b.Exposed, b.Wire)
			rec.addUS(span{Op: op, Parent: id, Layer: layerTensor, Name: "compute", StartUS: cursor, EndUS: cursor + b.Compute*1e3, Reported: true})
			rec.addUS(span{Op: op, Parent: id, Layer: layerWire, Name: "exposed wire", StartUS: cursor + b.Compute*1e3, EndUS: cursor + (b.Compute+onWire)*1e3, Reported: true})
		}
		cursor += st.ms * 1e3
	}
	rec.observe("serve.queue_ms_p50", t.Queue)
	rec.observe("serve.admission_ms_p50", t.Admission)
	rec.observe("serve.run_ms_p50", t.Run)
	rec.observe("serve.unaccounted_ms_p50", r.ms-t.Queue-t.Plan-t.Admission-t.Run)
	rec.observe("serve.batch_size_mean", float64(r.body.BatchSize))
	rec.observe("serve.overlap_eff_mean", r.body.OverlapEfficiency)
	rec.observe("serve.plan_"+r.body.Plan, 1)
	if r.body.Plan == "miss" {
		observeMiss(rec, r)
	}
	if r.body.Plan != "hit" || !s.cold {
		rec.observe("serve.plan_ms_p50", t.Plan)
	}
	recordBreakdown(rec, t.Run, b.Step, b.Compute, b.Wire, b.Exposed)

	if !fetchTrace {
		return
	}
	status, data, t0, t1, err := s.exchange(client, http.MethodGet, "/v1/runs/"+r.body.RunID, nil)
	if err != nil || status != http.StatusOK {
		return
	}
	rec.add(op, 0, layerObs, "GET /v1/runs/{id}", t0, t1)
	rec.observe("serve.trace_get_ms_p50", t1.Sub(t0).Seconds()*1e3)
	rt, err := obs.DecodeRunTrace(data)
	if err != nil {
		return
	}
	spans := spansOf(rt)
	var rep obs.AttributionReport
	rec.observe("obs.attribute_ms", rec.timed(op, 0, layerObs, "obs.Attribute", func() { rep = obs.Attribute(spans) }))
	rec.observe("obs.encode_ms", rec.timed(op, 0, layerObs, "RunTrace.EncodeJSON", func() { _, _ = rt.EncodeJSON() }))
	rec.observe("obs.events_per_op", float64(len(spans)))
	rec.observe("obs.trace_kb", float64(len(data))/1024)
	recordAttribution(rec, rep, rt, r.body.Devices)
}

// observeMiss observes the compile a plan miss paid for.
func observeMiss(rec *recorder, r reply) {
	rec.observe("autotune.compile_ms_p50", r.body.TimingMS.Plan)
	rec.observe("autotune.baseline_wins", indicator(r.body.BestName == "baseline"))
}

// finish observes what only the whole pass knows: how many set-up
// passes the warm mix needed, how many requests saw their fingerprint
// change (the split-K key drift), and one plan artifact's size and
// decode time via POST /v1/compile.
func (s *serveRunner) finish(rec *recorder) {
	rec.observe("serve.setup_passes", float64(s.setupPasses))
	drift := 0.0
	s.mu.Lock()
	for _, fps := range s.fingerprints {
		if len(fps) > 1 {
			drift++
		}
	}
	s.mu.Unlock()
	rec.observe("serve.key_drift", drift)

	status, data, _, _, err := s.exchange(0, http.MethodPost, "/v1/compile", s.ops[0])
	if err != nil || status != http.StatusOK {
		return
	}
	if plan, err := autotune.DecodePlan(data); err == nil {
		_ = observePlan(rec, plan)
	}
}
