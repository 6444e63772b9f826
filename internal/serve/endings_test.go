package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"overlap/internal/hlo"
	"overlap/internal/obs"
	"overlap/internal/runtime"
	"overlap/internal/tensor"
)

// runErrorJSON is runtime.RunError as a 503 body carries it.
type runErrorJSON struct {
	Device      int    `json:"device"`
	Instruction string `json:"instruction"`
	Phase       string `json:"phase"`
	Fault       string `json:"fault"`
	Cause       string `json:"cause"`
	RunID       string `json:"run_id"`
}

// TestRunEndings pins every way a /v1/run request for a cached plan can
// end: its status, its body's fields (run ids and timings aside), the
// trace the flight recorder keeps of it, if any, and what it adds to the
// error counters and the failed-run histogram.
func TestRunEndings(t *testing.T) {
	const diverged = "output on device 2 diverges bitwise from the interpreter"
	cases := []struct {
		name    string
		cfg     func(*Config)
		arrange func(t *testing.T, s *Server) // after the compile, before the request
		req     func(*Request)
		status  int
		keys    []string // the body's JSON fields
		err     string   // in the body's error
		// recorded names a run the recorder keeps: the body carries its
		// run id and fingerprint, and the trace its status and error.
		recorded bool
		phase    string // the recorded error's phase; "" for a run that succeeded
		device   int    // the recorded error's device
		runError bool   // the body and trace attribute an injected fault

		dErrors, dRunErrors float64
		dFailed             uint64
	}{
		{
			name:   "ok",
			req:    func(r *Request) { r.Check = true },
			status: http.StatusOK,
			keys: []string{"batch_size", "best_name", "breakdown_ms", "checked", "devices", "digest",
				"fingerprint", "overlap_efficiency", "plan", "run_id", "timing_ms"},
			recorded: true,
		},
		{
			name: "run error",
			cfg:  func(c *Config) { c.DebugFaults = true },
			req: func(r *Request) {
				r.Fault = "crash:dev:1"
				r.DeadlineMS = 30000
			},
			status:   http.StatusServiceUnavailable,
			keys:     []string{"error", "fingerprint", "run_error", "run_id"},
			err:      "runtime: run failed: device 1: wq (phase compute): injected device crash [elapsed ",
			recorded: true, phase: "compute", device: 1, runError: true,
			dRunErrors: 1, dFailed: 1,
		},
		{
			name: "failed check",
			arrange: func(t *testing.T, s *Server) {
				s.check = func(*hlo.Computation, int, [][]*tensor.Tensor, *runtime.Result) error {
					return fmt.Errorf(diverged)
				}
			},
			req:      func(r *Request) { r.Check = true },
			status:   http.StatusInternalServerError,
			keys:     []string{"error", "fingerprint", "run_id"},
			err:      diverged,
			recorded: true, phase: "check", device: -1,
			dErrors: 1,
		},
		{
			name:    "run failure that is not a RunError",
			cfg:     func(c *Config) { c.Transport = "carrier-pigeon" },
			status:  http.StatusInternalServerError,
			keys:    []string{"error"},
			err:     `runtime: unknown transport "carrier-pigeon" (want "chan" or "proc")`,
			dErrors: 1, dFailed: 1,
		},
		{
			name: "admission wait past the deadline",
			cfg:  func(c *Config) { c.MaxConcurrentRuns = 1 },
			arrange: func(t *testing.T, s *Server) {
				s.slots <- struct{}{}
				t.Cleanup(func() { <-s.slots })
			},
			req:     func(r *Request) { r.DeadlineMS = 50 },
			status:  http.StatusServiceUnavailable,
			keys:    []string{"error"},
			err:     "serve: admission wait exceeded deadline: context deadline exceeded",
			dErrors: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			s, ts := newTestServer(t, cfg)
			req := miniatureRequest()
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(mustJSON(t, req)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compile: status %d", resp.StatusCode)
			}
			fingerprint := s.plans.keys()[0]
			if tc.arrange != nil {
				tc.arrange(t, s)
			}
			if tc.req != nil {
				tc.req(&req)
			}
			runsBefore := len(s.recorder.list())
			e0, r0, f0 := svErrors.Value(), svRunErrors.Value(), svFailedRunSeconds.Count()
			_, status, raw, _ := postRun(ts, req)
			if d := svErrors.Value() - e0; d != tc.dErrors {
				t.Errorf("errors counter moved %v, want %v", d, tc.dErrors)
			}
			if d := svRunErrors.Value() - r0; d != tc.dRunErrors {
				t.Errorf("run-errors counter moved %v, want %v", d, tc.dRunErrors)
			}
			if d := svFailedRunSeconds.Count() - f0; d != tc.dFailed {
				t.Errorf("failed-run histogram moved %v, want %v", d, tc.dFailed)
			}
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, raw)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatalf("body is not a JSON object: %v: %s", err, raw)
			}
			keys := make([]string, 0, len(fields))
			for k := range fields {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, tc.keys) {
				t.Errorf("body fields %v, want %v", keys, tc.keys)
			}

			var runID, cause string
			var re *runErrorJSON
			if status == http.StatusOK {
				var rr RunResponse
				if err := json.Unmarshal(raw, &rr); err != nil {
					t.Fatal(err)
				}
				runID = rr.RunID
				if rr.Fingerprint != fingerprint || rr.Plan != "hit" || rr.BestName == "" || rr.Devices != req.Devices ||
					rr.BatchSize != 1 || !rr.Checked || len(rr.Digest) != 64 ||
					rr.OverlapEfficiency < 0 || rr.OverlapEfficiency > 1 {
					t.Errorf("200 body %+v", rr)
				}
			} else {
				var body struct {
					Error       string        `json:"error"`
					RunError    *runErrorJSON `json:"run_error"`
					Fingerprint string        `json:"fingerprint"`
					RunID       string        `json:"run_id"`
				}
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Fatal(err)
				}
				runID, cause, re = body.RunID, body.Error, body.RunError
				if !strings.Contains(body.Error, tc.err) {
					t.Errorf("error %q, want it to contain %q", body.Error, tc.err)
				}
				if tc.recorded && body.Fingerprint != fingerprint {
					t.Errorf("body fingerprint %q, want %q", body.Fingerprint, fingerprint)
				}
				if (re != nil) != tc.runError {
					t.Fatalf("body run_error %+v, want one: %v", re, tc.runError)
				}
				if re != nil && (re.Device != tc.device || re.Phase != tc.phase || re.Instruction != "wq" ||
					re.Fault != "crash:dev:1:0" || re.Cause != "injected device crash" || re.RunID != body.RunID || !strings.Contains(body.Error, "[run "+body.RunID+"]")) {
					t.Errorf("body run_error %+v under error %q", re, body.Error)
				}
			}

			if !tc.recorded {
				if n := len(s.recorder.list()); n != runsBefore {
					t.Errorf("the flight recorder went from %d to %d runs, want no new one", runsBefore, n)
				}
				return
			}
			if !runIDPattern.MatchString(runID) {
				t.Fatalf("body run id %q", runID)
			}
			trace := getTrace(t, ts, runID)
			if tc.phase == "" {
				if trace.Status != obs.StatusOK || trace.Error != nil {
					t.Errorf("trace status %q, error %+v; want ok and none", trace.Status, trace.Error)
				}
				return
			}
			want := obs.RunTraceError{Device: tc.device, Phase: tc.phase, Cause: cause}
			if re != nil {
				want.Instruction, want.Fault = re.Instruction, re.Fault
			}
			if trace.Status != obs.StatusFailed || trace.Error == nil || *trace.Error != want {
				t.Errorf("trace status %q, error %+v; want failed and %+v", trace.Status, trace.Error, want)
			}
		})
	}
}
