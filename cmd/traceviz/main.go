// Command traceviz renders the execution of one model layer as an
// ASCII timeline, making the overlap visible in a terminal: transfers
// ('=') running under compute ('#') are hidden communication, transfers
// under stalls ('.') are exposed.
//
// By default the timeline comes from the discrete-event simulator's
// predicted trace of the full-size model. With -run the layer is scaled
// to a miniature and executed for real on the concurrent goroutine
// runtime, so measured and predicted timelines render through the same
// view and can be compared side by side.
//
// Usage:
//
//	traceviz -model GPT_32B               # baseline (blocking), simulated
//	traceviz -model GPT_32B -overlap      # decomposed + scheduled
//	traceviz -model GPT_32B -overlap -width 160
//	traceviz -model GPT_32B -overlap -run # measured on goroutine devices
//	traceviz -model GPT_32B -overlap -attrib   # per-collective attribution table
//	traceviz -model GPT_32B -link-gbs 200      # machine-spec override
//	traceviz -trace-in run.json                # render a recorded RunTrace artifact
//	                                           # (overlap run -trace-out / overlapd /v1/runs/{id})
package main

import (
	"flag"
	"fmt"
	"os"

	"overlap"
	"overlap/cmd/internal/cli"
	"overlap/internal/models"
	"overlap/internal/sim"
)

func main() {
	f := cli.Defaults()
	// -devices, -dim and -timescale size and pace the -run miniature.
	f.Register(flag.CommandLine, "model", "devices", "dim", "timescale", "attrib", "link-gbs", "peak-tflops")
	apply := flag.Bool("overlap", false, "apply the overlap pipeline first")
	width := flag.Int("width", 120, "timeline width in columns")
	run := flag.Bool("run", false, "execute a miniature on the goroutine runtime and render the measured trace")
	traceIn := flag.String("trace-in", "", "render a recorded RunTrace artifact (from overlap run/train -trace-out or overlapd /v1/runs/{id}) instead of building a model")
	flag.Parse()

	if *traceIn != "" {
		data, err := os.ReadFile(*traceIn)
		if err != nil {
			fail(err)
		}
		trace, err := overlap.DecodeRunTrace(data)
		if err != nil {
			fail(err)
		}
		printArtifactHeader(trace)
		render(trace, *width, f.Attrib)
		return
	}

	spec, err := f.Spec()
	if err != nil {
		fail(err)
	}

	var cfg overlap.ModelConfig
	if *run {
		cfg, err = f.Miniature()
	} else {
		cfg, err = models.ByName(f.Model)
	}
	if err != nil {
		fail(err)
	}
	c, err := overlap.BuildLayerStep(cfg)
	if err != nil {
		fail(err)
	}
	if *apply {
		opts := overlap.DefaultOptions(spec)
		if *run {
			// Miniature shapes would not pass the cost model, which
			// prices the full-size tensors; decompose unconditionally.
			opts.UseCostModel = false
		}
		if _, err := overlap.Apply(c, opts); err != nil {
			fail(err)
		}
	}

	var (
		bd     overlap.Breakdown
		spans  []overlap.Span
		id     string
		source string
	)
	if *run {
		res, rerr := overlap.Run(c, f.Devices, cli.Args(c), overlap.RunOptions{
			Spec: spec, TimeScale: f.TimeScale, Trace: true,
		})
		if rerr != nil {
			fail(rerr)
		}
		bd, spans, id, source = res.Breakdown, res.Trace, res.RunID, "measured"
	} else {
		bd, spans, err = sim.SimulateTrace(c, cfg.Mesh().NumDevices(), spec)
		if err != nil {
			fail(err)
		}
		id, source = "sim-"+cfg.Name, "simulated"
	}
	fmt.Printf("%s, one layer step (%s): %.3f ms, %.0f%% exposed communication\n",
		cfg.Name, source, 1e3*bd.StepTime, 100*bd.CommFraction())
	render(overlap.NewRunTrace(id, "run", spans), *width, f.Attrib)
}

// render prints the one timeline view of a RunTrace — simulated,
// measured or read back from a file — and, on request, the attribution
// report its wire-span verdicts were stamped from.
func render(trace *overlap.RunTrace, width int, attrib bool) {
	fmt.Print(trace.Timeline(width))
	if attrib && trace.Attribution != nil {
		fmt.Print(trace.Attribution.Render())
	}
}

// printArtifactHeader prints what a recorded artifact says about its
// run above the timeline: identity, failure, serve-path stages.
func printArtifactHeader(trace *overlap.RunTrace) {
	header := fmt.Sprintf("run %s (%s, %s)", trace.ID, trace.Scenario, trace.Status)
	if trace.Model != "" {
		header += ", model " + trace.Model
	}
	if trace.StepMS > 0 {
		header += fmt.Sprintf(": %.3f ms step", trace.StepMS)
	}
	fmt.Println(header)
	if trace.Error != nil {
		fmt.Printf("failed: device %d %s (phase %s): %s\n",
			trace.Error.Device, trace.Error.Instruction, trace.Error.Phase, trace.Error.Cause)
	}
	for _, st := range trace.Stages {
		fmt.Printf("stage %-10s %8.3f ms\n", st.Name, st.DurMS)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "traceviz: %v\n", err)
	os.Exit(1)
}
