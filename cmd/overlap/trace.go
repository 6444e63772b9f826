package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"overlap"
	"overlap/cmd/internal/cli"
	"overlap/internal/models"
	"overlap/internal/sim"
)

// setupTrace is `overlap trace`: the one renderer of a RunTrace. The
// trace is the discrete-event simulator's prediction for one full-size
// layer of -model (after the overlap pipeline with -overlap), or a
// recorded artifact read with -trace-in — an `overlap run` or `train`
// -trace-out file, or a daemon's /v1/runs/{id} body. Either way it is
// drawn as an ASCII timeline, making the overlap visible in a terminal:
// transfers ('=') running under compute ('#') are hidden communication,
// transfers under stalls ('.') are exposed. -attrib adds the
// per-collective attribution table the wire spans' verdicts came from;
// -trace writes the same trace as a Chrome trace file.
//
//	overlap trace -model GPT_32B                  # baseline (blocking), simulated
//	overlap trace -model GPT_32B -overlap -attrib # decomposed + scheduled, attributed
//	overlap trace -model GPT_1T -overlap -trace sim.json
//	overlap trace -model GPT_32B -link-gbs 200    # machine-spec override
//	overlap trace -trace-in run.json -width 160   # a recorded run
func setupTrace(fs *flag.FlagSet, stdout, stderr io.Writer) func() error {
	f := cli.Defaults()
	f.Register(fs, "model", "link-gbs", "peak-tflops", "attrib", "trace")
	apply := fs.Bool("overlap", false, "apply the overlap pipeline before simulating")
	width := fs.Int("width", 120, "timeline width in columns")
	traceIn := fs.String("trace-in", "", "render a recorded RunTrace artifact (from overlap run/train -trace-out or overlap serve's /v1/runs/{id}) instead of simulating a model")

	return func() error {
		var trace *overlap.RunTrace
		if *traceIn != "" {
			data, err := os.ReadFile(*traceIn)
			if err != nil {
				return err
			}
			if trace, err = overlap.DecodeRunTrace(data); err != nil {
				return err
			}
			printArtifactHeader(stdout, trace)
		} else {
			var err error
			if trace, err = simulateLayer(stdout, f, *apply); err != nil {
				return err
			}
		}

		fmt.Fprint(stdout, trace.Timeline(*width))
		if f.Attrib {
			printAttribution(stdout, trace)
		}
		if f.Trace == "" {
			return nil
		}
		data, err := trace.ChromeTrace()
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.Trace, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "overlap trace: wrote %d trace events to %s\n", len(trace.Spans)+len(trace.Stages), f.Trace)
		return nil
	}
}

// simulateLayer predicts one layer step of the full-size -model on the
// simulator and prints its headline.
func simulateLayer(w io.Writer, f *cli.Flags, apply bool) (*overlap.RunTrace, error) {
	spec, err := f.Spec()
	if err != nil {
		return nil, err
	}
	cfg, err := models.ByName(f.Model)
	if err != nil {
		return nil, err
	}
	c, err := overlap.BuildLayerStep(cfg)
	if err != nil {
		return nil, err
	}
	if apply {
		if _, err := overlap.Apply(c, overlap.DefaultOptions(spec)); err != nil {
			return nil, err
		}
	}
	bd, spans, err := sim.SimulateTrace(c, cfg.Mesh().NumDevices(), spec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s, one layer step (simulated): %.3f ms, %.0f%% exposed communication\n",
		cfg.Name, 1e3*bd.StepTime, 100*bd.CommFraction())
	trace := overlap.NewRunTrace("sim-"+cfg.Name, "run", spans) // fixed id: the file is diffable across revisions
	trace.Model = cfg.Name
	return trace, nil
}

// printAttribution prints the attribution report a RunTrace carries —
// the one analysis of its spans, which also stamped their verdicts. A
// span stream with no collective and no stall carries none, and prints
// as the empty report.
func printAttribution(w io.Writer, trace *overlap.RunTrace) {
	var rep overlap.AttributionReport
	if trace.Attribution != nil {
		rep = *trace.Attribution
	}
	fmt.Fprint(w, rep.Render())
}

// printArtifactHeader prints what a recorded artifact says about its
// run above the timeline: identity, failure, serve-path stages.
func printArtifactHeader(w io.Writer, trace *overlap.RunTrace) {
	header := fmt.Sprintf("run %s (%s, %s)", trace.ID, trace.Scenario, trace.Status)
	if trace.Model != "" {
		header += ", model " + trace.Model
	}
	if trace.StepMS > 0 {
		header += fmt.Sprintf(": %.3f ms step", trace.StepMS)
	}
	fmt.Fprintln(w, header)
	if trace.Error != nil {
		fmt.Fprintf(w, "failed: device %d %s (phase %s): %s\n",
			trace.Error.Device, trace.Error.Instruction, trace.Error.Phase, trace.Error.Cause)
	}
	for _, st := range trace.Stages {
		fmt.Fprintf(w, "stage %-10s %8.3f ms\n", st.Name, st.DurMS)
	}
}
