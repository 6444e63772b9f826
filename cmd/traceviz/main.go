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
//	                                           # (overlaprun -trace-out / overlapd /v1/runs/{id})
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"overlap"
	"overlap/internal/models"
	"overlap/internal/sim"
	"overlap/internal/tensor"
)

func main() {
	model := flag.String("model", "GPT_32B", "model name from Table 1 or Table 2")
	apply := flag.Bool("overlap", false, "apply the overlap pipeline first")
	width := flag.Int("width", 120, "timeline width in columns")
	run := flag.Bool("run", false, "execute a miniature on the goroutine runtime and render the measured trace")
	devices := flag.Int("devices", 4, "ring size for -run (goroutine devices)")
	dim := flag.Int("dim", 8, "miniature per-head dimension for -run")
	timeScale := flag.Float64("timescale", 2000, "wire-delay scale for -run")
	attrib := flag.Bool("attrib", false, "print the per-collective overlap attribution under the timeline")
	linkGBs := flag.Float64("link-gbs", 0, "override per-direction link bandwidth (GB/s, 4-byte-element equivalent)")
	peakTF := flag.Float64("peak-tflops", 0, "override per-chip peak TFLOP/s")
	traceIn := flag.String("trace-in", "", "render a recorded RunTrace artifact (from overlaprun/overlaptrain -trace-out or overlapd /v1/runs/{id}) instead of building a model")
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
		render(trace, *width, *attrib)
		return
	}

	spec := overlap.TPUv4()
	if *linkGBs != 0 {
		spec.LinkBandwidth = *linkGBs * 1e9
	}
	if *peakTF != 0 {
		spec.PeakFLOPS = *peakTF * 1e12
	}
	if err := spec.Validate(); err != nil {
		fail(err)
	}

	cfg, err := models.ByName(*model)
	if err != nil {
		fail(err)
	}
	if *run {
		var merr error
		if cfg, merr = overlap.Miniature(cfg, *devices, *dim); merr != nil {
			fail(merr)
		}
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
		res, rerr := overlap.Run(c, *devices, randomArgs(c), overlap.RunOptions{
			Spec: spec, TimeScale: *timeScale, Trace: true,
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
	render(overlap.NewRunTrace(id, "run", spans), *width, *attrib)
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

// randomArgs supplies one replicated random tensor per parameter, the
// same convention overlaprun uses.
func randomArgs(c *overlap.Computation) [][]*tensor.Tensor {
	rng := rand.New(rand.NewSource(42))
	params := c.Parameters()
	args := make([][]*tensor.Tensor, len(params))
	for i, p := range params {
		args[i] = []*tensor.Tensor{tensor.Rand(rng, p.Shape...)}
	}
	return args
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "traceviz: %v\n", err)
	os.Exit(1)
}
