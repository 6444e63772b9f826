// Command hlodump prints the per-layer SPMD program of one of the
// evaluated models before and/or after the overlap pipeline — useful
// for inspecting what the decomposition and the scheduler produced.
//
// Usage:
//
//	hlodump -model GPT_32B            # baseline HLO
//	hlodump -model GPT_32B -overlap   # after decomposition + scheduling
//	hlodump -in prog.hlo -devices 8   # parse a dump, verify, simulate
package main

import (
	"flag"
	"fmt"
	"os"

	"overlap"
	"overlap/cmd/internal/cli"
	"overlap/internal/hlo"
	"overlap/internal/machine"
	"overlap/internal/models"
	"overlap/internal/sim"
)

func main() {
	f := cli.Defaults()
	f.Devices = 0 // only -in reads it, and must be told
	f.Register(flag.CommandLine, "model", "devices", "trace")
	in := flag.String("in", "", "parse, verify and simulate this HLO text file on a -devices N ring instead of building a model")
	apply := flag.Bool("overlap", false, "apply the overlap pipeline before printing")
	scheduler := flag.String("scheduler", "bottom-up", "scheduler: bottom-up, top-down or none")
	flag.Parse()

	if *in != "" {
		raw, err := os.ReadFile(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlodump: %v\n", err)
			os.Exit(1)
		}
		if f.Devices < 1 {
			fmt.Fprintln(os.Stderr, "hlodump: -in needs -devices N: a program is verified for, and simulated on, a ring")
			os.Exit(2)
		}
		c, err := hlo.ParseProgram(string(raw), f.Devices)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlodump: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hlodump: parsed %d instructions, peak memory %.2f MiB\n",
			c.NumInstructions(), float64(hlo.PeakMemory(c).PeakBytes)/(1<<20))
		bd, err := sim.Simulate(c, f.Devices, machine.TPUv4())
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlodump: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hlodump: step %.3f ms, %.0f%% exposed communication\n",
			1e3*bd.StepTime, 100*bd.CommFraction())
		fmt.Print(c.Format())
		return
	}

	cfg, err := models.ByName(f.Model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hlodump: %v\n", err)
		os.Exit(1)
	}
	c, err := overlap.BuildLayerStep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hlodump: %v\n", err)
		os.Exit(1)
	}
	if *apply {
		opts := overlap.DefaultOptions(overlap.TPUv4())
		switch *scheduler {
		case "bottom-up":
			opts.Scheduler = overlap.SchedulerBottomUp
		case "top-down":
			opts.Scheduler = overlap.SchedulerTopDown
		case "none":
			opts.Scheduler = overlap.SchedulerNone
		default:
			fmt.Fprintf(os.Stderr, "hlodump: unknown scheduler %q\n", *scheduler)
			os.Exit(1)
		}
		report, err := overlap.Apply(c, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlodump: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("// sites found=%d decomposed=%d rejected=%d fusions=%d\n",
			report.SitesFound, report.SitesDecomposed, report.SitesRejected, report.FusionsFormed)
	}
	if f.Trace != "" {
		_, spans, err := sim.SimulateTrace(c, cfg.Mesh().NumDevices(), machine.TPUv4())
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlodump: %v\n", err)
			os.Exit(1)
		}
		trace := overlap.NewRunTrace("sim-"+cfg.Name, "run", spans) // fixed id: the file is diffable across revisions
		trace.Model = cfg.Name
		raw, err := trace.ChromeTrace()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlodump: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(f.Trace, raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hlodump: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hlodump: wrote %d trace events to %s\n", len(spans), f.Trace)
	}
	fmt.Print(c.Format())
}
