package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"overlap"
	"overlap/cmd/internal/cli"
	"overlap/internal/obs"
)

// mainEnv, set in a child's environment, makes the test binary the
// overlap command itself: for a test that needs a process of its own —
// a real signal, a fresh telemetry registry.
const mainEnv = "OVERLAP_TEST_AS_MAIN"

// TestMain lets the test binary serve as the proc transport's worker
// (`run -transport proc` re-executes the running binary) and as the
// command.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
	}
	overlap.MaybeTransportWorker()
	os.Exit(m.Run())
}

// tiny sizes every case: the smallest miniature, whose compute — and so
// its wire at the derived clock — takes well under a millisecond.
var tiny = []string{"-model", "GPT_32B", "-devices", "4", "-dim", "2"}

func invoke(args ...string) (status int, stdout, stderr string) {
	var out, errw bytes.Buffer
	status = dispatch(args, &out, &errw)
	return status, out.String(), errw.String()
}

// mustContain fails unless the subcommand exited with wantStatus and
// every fragment appears in the named stream.
func mustContain(t *testing.T, args []string, wantStatus int, wantOut, wantErr []string) {
	t.Helper()
	status, stdout, stderr := invoke(args...)
	if status != wantStatus {
		t.Fatalf("overlap %s: status %d, want %d\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), status, wantStatus, stdout, stderr)
	}
	for _, want := range wantOut {
		if !strings.Contains(stdout, want) {
			t.Errorf("overlap %s: stdout lacks %q:\n%s", strings.Join(args, " "), want, stdout)
		}
	}
	for _, want := range wantErr {
		if !strings.Contains(stderr, want) {
			t.Errorf("overlap %s: stderr lacks %q:\n%s", strings.Join(args, " "), want, stderr)
		}
	}
}

// children lists the live child processes of this one.
func children(t *testing.T) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil || len(stats) == 0 {
		t.Skip("no /proc to scan for worker processes")
	}
	self := strconv.Itoa(os.Getpid())
	var pids []int
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited since the glob
		}
		// pid (comm) state ppid …; comm may itself hold spaces and parens.
		rest := string(data)
		rest = rest[strings.LastIndexByte(rest, ')')+1:]
		if fields := strings.Fields(rest); len(fields) > 1 && fields[1] == self {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			pids = append(pids, pid)
		}
	}
	return pids
}

// counters reads a telemetry snapshot as name → value.
func counters(metrics []obs.MetricSnapshot) map[string]float64 {
	values := map[string]float64{}
	for _, m := range metrics {
		values[m.Name] = m.Value
	}
	return values
}

// lintProm fails unless the file at path is valid Prometheus text.
func lintProm(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.LintPrometheus(data); err != nil {
		t.Errorf("%s does not lint: %v", path, err)
	}
}

// chromeTrace decodes a Chrome trace file and fails unless it holds
// complete events, each on a device track or the serve stages' row.
func chromeTrace(t *testing.T, data []byte) (meta map[string]any) {
	t.Helper()
	var chrome struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			PID, TID      int
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("not a Chrome trace: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("Chrome trace holds no events")
	}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" || ev.Cat == "" || (ev.PID < 0) != (ev.Cat == "stage") {
			t.Fatalf("Chrome trace event %+v is not a complete event on a device track or the stage row", ev)
		}
	}
	return chrome.Metadata
}

// TestSubcommands drives every subcommand through dispatch — the same
// entry main uses — and pins the report lines, exit statuses and
// written files a user reads.
func TestSubcommands(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "plans")
	plan := filepath.Join(dir, "plan.json")
	recorded := filepath.Join(dir, "run-trace.json")
	with := func(sub string, extra ...string) []string {
		return append(append([]string{sub}, tiny...), extra...)
	}

	t.Run("run checked", func(t *testing.T) {
		mustContain(t, with("run", "-mode", "overlap", "-check"), 0, []string{"overlap   step", "[checked]"}, nil)
	})
	t.Run("run every mode with attribution", func(t *testing.T) {
		mustContain(t, with("run", "-check", "-attrib"), 0,
			[]string{"clock: wire × ", " (measured on the untransformed miniature)\nbaseline  step", "rolled    step", "overlap   step", "overlap efficiency"}, nil)
	})
	t.Run("run writes its telemetry and traces", func(t *testing.T) {
		chrome, prom := filepath.Join(dir, "run-chrome.json"), filepath.Join(dir, "run.prom")
		mustContain(t, with("run", "-mode", "overlap", "-attrib", "-trace", chrome, "-trace-out", recorded, "-metrics-out", prom), 0,
			[]string{"overlap efficiency", "trace events to " + chrome, "to " + recorded, "wrote telemetry to " + prom}, nil)
		lintProm(t, prom)
		data, err := os.ReadFile(chrome)
		if err != nil {
			t.Fatal(err)
		}
		if meta := chromeTrace(t, data); meta["model"] != "gpt_32b-mini" || meta["status"] != "ok" {
			t.Errorf("Chrome trace metadata %v", meta)
		}
	})
	t.Run("trace a recorded run", func(t *testing.T) {
		mustContain(t, []string{"trace", "-trace-in", recorded, "-attrib", "-width", "40"}, 0,
			[]string{"(run, ok), model gpt_32b-mini: ", "dev  3 comp |", "overlap efficiency"}, nil)
		bad := filepath.Join(dir, "not-a-trace.json")
		if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		mustContain(t, []string{"trace", "-trace-in", bad}, 1, nil, []string{"overlap trace: obs: run trace"})
	})
	t.Run("trace a simulated layer", func(t *testing.T) {
		chrome := filepath.Join(dir, "sim-chrome.json")
		mustContain(t, []string{"trace", "-model", "GPT_32B", "-overlap", "-attrib", "-trace", chrome}, 0,
			[]string{"GPT_32B, one layer step (simulated): ", "xfer |", "collective-permute-start", "overlap efficiency"}, nil)
		data, err := os.ReadFile(chrome)
		if err != nil {
			t.Fatal(err)
		}
		if meta := chromeTrace(t, data); meta["run_id"] != "sim-GPT_32B" || meta["model"] != "GPT_32B" {
			t.Errorf("Chrome trace metadata %v", meta)
		}
	})
	t.Run("hlo", func(t *testing.T) {
		mustContain(t, []string{"hlo", "-model", "GPT_32B", "-overlap"}, 0,
			[]string{"// sites found=", "collective-permute-start"}, nil)
		golden := filepath.Join("..", "..", "internal", "core", "testdata", "ag_rolled.golden")
		mustContain(t, []string{"hlo", "-in", golden, "-devices", "4"}, 0,
			[]string{"%loop.5 = f32[16 5] loop("}, []string{"overlap hlo: parsed ", "overlap hlo: step "})
		// Its permutes name device 3: a 3-device ring cannot hold it.
		mustContain(t, []string{"hlo", "-in", golden, "-devices", "3"}, 1, nil, []string{"overlap hlo: hlo: ", "out of range [0,3)"})
		mustContain(t, []string{"hlo", "-in", golden}, 1, nil, []string{"-in needs -devices N"})
	})
	t.Run("run on worker processes", func(t *testing.T) {
		mustContain(t, with("run", "-mode", "overlap", "-transport", "proc", "-check"), 0, []string{"[checked]"}, nil)
		if pids := children(t); len(pids) != 0 {
			t.Fatalf("worker processes survived the run: %v", pids)
		}
	})
	t.Run("run with an injected fault", func(t *testing.T) {
		metrics := filepath.Join(dir, "fault-metrics.json")
		for _, transport := range []string{"chan", "proc"} {
			for _, fault := range []string{"crash:dev:1:5", "drop:link:0-1:0", "dup:link:1-2:0"} {
				t.Run(fault+" "+transport, func(t *testing.T) {
					// Only a drop stalls until the deadline, which leaves
					// room to spawn workers.
					deadline := "30s"
					if strings.HasPrefix(fault, "drop") {
						deadline = map[string]string{"chan": "2s", "proc": "5s"}[transport]
					}
					before := counters(overlap.Metrics().Snapshot())
					mustContain(t, with("run", "-mode", "overlap", "-transport", transport,
						"-fault", fault, "-fault-seed", "7", "-deadline", deadline, "-metrics-out", metrics), 1,
						[]string{"injecting faults: " + fault + " (seed 7)"},
						[]string{"overlap run: ", "(phase ", "[injected: " + fault + "]"})
					data, err := os.ReadFile(metrics)
					if err != nil {
						t.Fatal(err)
					}
					var export struct{ Metrics []obs.MetricSnapshot }
					if err := json.Unmarshal(data, &export); err != nil {
						t.Fatal(err)
					}
					after := counters(export.Metrics)
					grew := []string{"overlap_runtime_fault_injections_total", "overlap_runtime_abort_total"}
					if transport == "proc" {
						grew = append(grew, "overlap_runtime_transport_workers_total")
					}
					for _, name := range grew {
						if after[name] <= before[name] {
							t.Errorf("-metrics-out %s = %v, was %v before the run: want it counted", name, after[name], before[name])
						}
					}
					if pids := children(t); len(pids) != 0 {
						t.Fatalf("worker processes survived the failed run: %v", pids)
					}
				})
			}
		}
	})
	t.Run("tune cold then warm", func(t *testing.T) {
		args := with("tune", "-topk", "1", "-cache", cache, "-plan-out", plan)
		mustContain(t, args, 0, []string{"cache: cold", "clock: wire × ", " (measured on the input)", "wrote compiled plan"}, nil)
		cold, err := os.ReadFile(plan)
		if err != nil {
			t.Fatal(err)
		}
		mustContain(t, args, 0, []string{"warm hit", "0 runtime executions"}, nil)
		// The warm run hands out the stored plan itself, timestamp and
		// all: -plan-out and the store hold one record, not two builds.
		warm, err := os.ReadFile(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("-plan-out differs between the cold and the warm tune:\n%s\n%s", cold, warm)
		}
		stored, err := filepath.Glob(filepath.Join(cache, "*.json"))
		if err != nil || len(stored) != 1 {
			t.Fatalf("store holds %v (%v), want one plan file", stored, err)
		}
		if data, err := os.ReadFile(stored[0]); err != nil || !bytes.Equal(data, cold) {
			t.Errorf("the stored plan is not the -plan-out bytes (%v)", err)
		}
	})
	t.Run("run a tuned plan", func(t *testing.T) {
		mustContain(t, []string{"run", "-plan-in", plan, "-check"}, 0, []string{" (carried by the plan)", "plan      step", "[checked]"}, nil)
	})
	t.Run("train", func(t *testing.T) {
		prom := filepath.Join(dir, "train.prom")
		mustContain(t, []string{"train", "-strategy", "ddp", "-steps", "3", "-check", "-attrib", "-metrics-out", prom}, 0,
			[]string{" (measured on the untransformed step)", "[checked]", "overlap   loss decreased over 3 steps", "partially hidden", "overlap efficiency"}, nil)
		lintProm(t, prom)
	})
	t.Run("experiments", func(t *testing.T) {
		mustContain(t, []string{"experiments", "fig12"}, 0, []string{"Figure 12", "GPT_1T"}, nil)
		mustContain(t, []string{"experiments", "-json", "table1"}, 0, []string{`{"experiment":"table1","text":`}, nil)
	})
	t.Run("usage errors", func(t *testing.T) {
		mustContain(t, []string{"simulate"}, 2, nil, []string{`unknown subcommand "simulate"`, "usage: overlap <subcommand>"})
		mustContain(t, nil, 2, nil, []string{"usage: overlap <subcommand>", "\n  serve ", "\n  trace ", "\n  hlo "})
		mustContain(t, []string{"run", "-no-such-flag"}, 2, nil, []string{"flag provided but not defined", "Usage of overlap run"})
		mustContain(t, with("run", "-mode", "sideways"), 1, nil, []string{`unknown mode "sideways"`})
	})
}

// TestServeEndToEnd runs `overlap serve` as a process of its own — its
// own telemetry registry, a real SIGTERM — and drives a served run's
// whole story over HTTP: a cold compile, a warm plan-cache hit, the
// flight recorder's listing and trace (JSON and Chrome), a training
// run, the /metrics scrape, the run id in the JSON log, a clean drain.
func TestServeEndToEnd(t *testing.T) {
	cmd := exec.Command(os.Args[0], "serve", "-addr", "127.0.0.1:0", "-no-cache")
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var logs bytes.Buffer // read only after Wait
	cmd.Stderr = &logs
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A hung daemon fails the test instead of hanging it.
	watchdog := time.AfterFunc(2*time.Minute, func() { cmd.Process.Kill() })
	defer watchdog.Stop()
	defer cmd.Process.Kill() // a no-op once it has exited

	stdout := bufio.NewScanner(pipe)
	base := ""
	for base == "" && stdout.Scan() {
		if _, rest, ok := strings.Cut(stdout.Text(), "serving at "); ok {
			base, _, _ = strings.Cut(rest, " ")
		}
	}
	if base == "" {
		t.Fatal("overlap serve printed no serving address")
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d (%v)\n%s", path, resp.StatusCode, err, body)
		}
		return body
	}
	type response struct {
		RunID             string  `json:"run_id"`
		Plan              string  `json:"plan"`
		Checked           bool    `json:"checked"`
		OverlapEfficiency float64 `json:"overlap_efficiency"`
	}
	post := func(body string) response {
		t.Helper()
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		var rr response
		if err == nil {
			err = json.Unmarshal(raw, &rr)
		}
		if err != nil || resp.StatusCode != http.StatusOK || rr.RunID == "" {
			t.Fatalf("POST /v1/run %s: status %d (%v)\n%s", body, resp.StatusCode, err, raw)
		}
		return rr
	}
	trace := func(id string) *overlap.RunTrace {
		t.Helper()
		tr, err := overlap.DecodeRunTrace(get("/v1/runs/" + id))
		if err != nil {
			t.Fatal(err)
		}
		if tr.ID != id {
			t.Fatalf("/v1/runs/%s answered run %s", id, tr.ID)
		}
		return tr
	}

	cold := post(`{"model":"GPT_32B","devices":4,"dim":2,"check":true}`)
	if cold.Plan != "miss" || !cold.Checked || cold.OverlapEfficiency <= 0 {
		t.Errorf("cold run: plan %q, checked %v, overlap efficiency %v; want a checked miss that hides wire", cold.Plan, cold.Checked, cold.OverlapEfficiency)
	}
	warm := post(`{"model":"GPT_32B","devices":4,"dim":2}`)
	if warm.Plan != "hit" {
		t.Errorf("warm run: plan %q, want hit", warm.Plan)
	}
	var listing struct {
		Runs []struct{ ID string }
	}
	if err := json.Unmarshal(get("/v1/runs"), &listing); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(listing.Runs, func(r struct{ ID string }) bool { return r.ID == warm.RunID }) {
		t.Errorf("/v1/runs does not list %s: %+v", warm.RunID, listing.Runs)
	}
	tr := trace(warm.RunID)
	verdicts := 0
	for _, s := range tr.Spans {
		if s.Verdict != "" {
			verdicts++
		}
	}
	if tr.Scenario != "run" || verdicts == 0 {
		t.Errorf("warm run's trace: scenario %q, %d wire spans with a verdict", tr.Scenario, verdicts)
	}
	if meta := chromeTrace(t, get("/v1/runs/"+warm.RunID+"?format=chrome")); meta["run_id"] != warm.RunID {
		t.Errorf("Chrome trace metadata %v", meta)
	}
	train := post(`{"model":"GPT_32B","devices":4,"dim":2,"scenario":"train","layers":1}`)
	if tr := trace(train.RunID); tr.Scenario != "train" {
		t.Errorf("train run's trace records scenario %q", tr.Scenario)
	}
	scrape := get("/metrics")
	if _, err := obs.LintPrometheus(scrape); err != nil {
		t.Errorf("/metrics does not lint: %v", err)
	}
	for _, want := range []string{"\noverlap_serve_plan_cache_hits_total 1\n", "\noverlap_serve_traces_recorded_total 3\n"} {
		if !bytes.Contains(scrape, []byte(want)) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest []string
	for stdout.Scan() {
		rest = append(rest, stdout.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("overlap serve after SIGTERM: %v\nstdout: %q\nstderr:\n%s", err, rest, logs.String())
	}
	if !slices.Contains(rest, "overlap serve: drained; bye") {
		t.Errorf("no drain report on stdout: %q", rest)
	}
	if !strings.Contains(logs.String(), `"run_id":"`+warm.RunID+`"`) {
		t.Errorf("the JSON log never names run %s:\n%s", warm.RunID, logs.String())
	}
}

// TestSharedFlagsDefinedOnce keeps the flag→options mapping single: a
// flag in the shared set is defined by cli's table and nowhere else
// under cmd/, so no command can grow its own -model or -transport with
// a drifting default or meaning.
func TestSharedFlagsDefinedOnce(t *testing.T) {
	names := cli.Names()
	for i, name := range names {
		if slices.Contains(names[:i], name) {
			t.Errorf("cli defines -%s twice", name)
		}
	}
	definers := map[string]int{ // flag-defining method → index of its name argument
		"String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Float64": 0, "Bool": 0, "Duration": 0,
		"StringVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "Float64Var": 1, "BoolVar": 1, "DurationVar": 1,
		"Var": 1, "Func": 0, "BoolFunc": 0, "TextVar": 1,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg, ok := definers[sel.Sel.Name]
			if !ok || arg >= len(call.Args) {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if name, _ := strconv.Unquote(lit.Value); slices.Contains(names, name) {
				t.Errorf("%s defines shared flag -%s itself: register it from cli", fset.Position(call.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
