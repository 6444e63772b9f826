// Command bench is the repository's benchmark: six workloads, from a
// bare decomposed site to a cold overlapd request, each measured twice —
// an untraced pass that yields the gated end-to-end metrics and a
// separate traced pass that yields the per-layer metrics. BENCHMARK.json
// at the repository root names this command; README.md in this
// directory explains every workload and metric.
//
//	go run ./bench                              all six workloads, both passes
//	go run ./bench -workload site_overlap       one workload, untraced pass
//	go run ./bench -workload serve_warm -trace 1
//	go run ./bench -compare a.json b.json       gate b against a
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"text/tabwriter"

	"overlap"
)

func main() {
	// site_proc's workers are re-executions of this binary.
	overlap.MaybeTransportWorker()

	var (
		name     = flag.String("workload", "", "run this workload in this process (default: all six, each pass in its own child process)")
		seed     = flag.Int64("seed", 1, "generates every tensor and the request order")
		seconds  = flag.Int("seconds", runSeconds, "the driver passes BENCHMARK.json's run_seconds; the op counts are constants sized for it, so any other value is refused")
		traced   = flag.Int("trace", 0, "with -workload: 0 runs the untraced pass (end-to-end metrics), 1 the traced pass (per-layer metrics)")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result and span files")
		compare  = flag.Bool("compare", false, "compare two result files of a full run: -compare old.json new.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as generated from spec.go")
	)
	flag.Parse()
	if *seconds != runSeconds {
		fatal(fmt.Errorf("-seconds %d: the op counts are fixed and sized for %d", *seconds, runSeconds))
	}

	switch {
	case *manifest:
		data, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		res, err := runOne(w, *seed, *traced == 1, *outDir)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		// The driver contract reads the last line of standard output.
		fmt.Println(contractLine(res))
	default:
		if err := runAll(*seed, *outDir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one pass of one workload in this process and writes its
// native result file.
func runOne(w workloadSpec, seed int64, traced bool, outDir string) (*result, error) {
	var (
		res  *result
		err  error
		file = w.Name + ".json"
	)
	if traced {
		res, err = tracedPass(w, seed, outDir)
		file = w.Name + ".traced.json"
	} else {
		res, err = measure(w, seed)
	}
	if err != nil {
		return nil, err
	}
	res.Notes = notesFor(w.Name, res)
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(outDir, file), append(data, '\n'), 0o644)
}

// notesFor records the hazards found while sizing the workloads, next
// to the numbers they affect.
func notesFor(name string, res *result) []string {
	var notes []string
	switch name {
	case "train_megatron":
		notes = append(notes, "LR is set to 2^-10 explicitly: the train.Options default of 1/16 diverges to NaN on this configuration.")
	case "serve_warm", "serve_cold":
		notes = append(notes, "autotune.Key reads the process-global split-K factor that ApplyBest sets, so a plan whose winner has ksplit=2 changes the fingerprint of every later request until another compile resets it. serve.key_drift counts the requests whose fingerprint changed, serve.setup_passes how many passes over the mix the warm set-up needed before one was all hits, serve.plan_miss and serve.compiles what leaked into the traced pass (0 is healthy on serve_warm).")
	}
	if res.Traced {
		if m := res.Metrics["serve.key_drift"]; m.Value > 0 {
			notes = append(notes, fmt.Sprintf("HAZARD: %g request(s) changed fingerprint during this run (split-K key drift).", m.Value))
		}
		if name == "serve_warm" {
			if m := res.Metrics["serve.plan_miss"]; m.Value > 0 {
				notes = append(notes, fmt.Sprintf("HAZARD: %g warm request(s) missed the plan cache and recompiled.", m.Value))
			}
		}
	}
	return notes
}

// contractLine renders the one-line JSON object the driver reads: the
// gated end-to-end metrics for an untraced pass, the per-layer ones for
// a traced pass, each as {value, unit} only.
func contractLine(res *result) string {
	specs := gated()
	if res.Traced {
		specs = perLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for _, s := range specs {
		m := res.Metrics[s.Name]
		metrics[s.Name] = valueUnit{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line)
}

// printResult prints every metric of one pass by name, with its unit.
func printResult(out io.Writer, res *result) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Fprintf(out, "%s (%s pass): %d ops, %d failed; nproc=%d GOMAXPROCS=%d kernel_workers=%d %s commit=%s seed=%d\n",
		res.Workload, pass, res.Attempted, res.Failed, res.Host.NProc, res.Host.GOMAXPROCS,
		res.Host.KernelWorkers, res.Host.GoVersion, res.Host.Commit, res.Host.Seed)
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		note := ""
		switch {
		case m.NA:
			note = "n/a on this workload"
		case m.Unverified:
			note = "unverified_on_host"
		case len(m.Segments) > 0:
			note = fmt.Sprintf("segment spread %.1f%%", 100*m.Spread)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, note)
	}
	tw.Flush()
	for _, n := range res.Notes {
		fmt.Fprintln(out, "  note:", n)
	}
}

// fullRun is the result file of a run of all six workloads: what
// -compare reads.
type fullRun struct {
	Host      host                    `json:"host"`
	Workloads map[string]*workloadRun `json:"workloads"`
}

type workloadRun struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Notes     []string          `json:"notes,omitempty"`
}

// runAll runs every workload's two passes, each in its own child
// process so that the process-global kernel knobs, the pack cache and
// VmHWM cannot leak from one into the next, and writes results.json.
func runAll(seed int64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	full := fullRun{Host: hostFacts(seed), Workloads: map[string]*workloadRun{}}
	failed := 0
	for _, w := range workloads {
		run := &workloadRun{}
		full.Workloads[w.Name] = run
		for _, traced := range []int{0, 1} {
			cmd := exec.Command(exe,
				"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-trace", strconv.Itoa(traced), "-out", outDir)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.Name, traced, err)
			}
			// Everything but the contract line is the child's table.
			lines := bytes.Split(bytes.TrimRight(stdout.Bytes(), "\n"), []byte("\n"))
			os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
			fmt.Println()

			file := w.Name + ".json"
			if traced == 1 {
				file = w.Name + ".traced.json"
			}
			data, err := os.ReadFile(filepath.Join(outDir, file))
			if err != nil {
				return err
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				return err
			}
			for _, n := range res.Notes {
				if !slices.Contains(run.Notes, n) {
					run.Notes = append(run.Notes, n)
				}
			}
			failed += res.Failed
			if traced == 1 {
				run.PerLayer = res.Metrics
			} else {
				run.EndToEnd, run.Attempted, run.Failed = res.Metrics, res.Attempted, res.Failed
			}
		}
	}
	// The one cross-workload ratio, from the two untraced passes (the
	// traced site_proc pass also measures it, interleaved).
	if chn, prc := full.Workloads["site_overlap"], full.Workloads["site_proc"]; chn.EndToEnd["op_ms_p50"].Value > 0 {
		fmt.Printf("site_proc / site_overlap op_ms_p50 (base: chan): %.3fx\n",
			prc.EndToEnd["op_ms_p50"].Value/chn.EndToEnd["op_ms_p50"].Value)
	}
	data, err := json.MarshalIndent(full, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d failed ops)\n", path, failed)
	return nil
}
