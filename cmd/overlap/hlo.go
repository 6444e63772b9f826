package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"overlap"
	"overlap/cmd/internal/cli"
	"overlap/internal/models"
)

// setupHLO is `overlap hlo`: print the per-layer SPMD program of one of
// the evaluated models before or after the overlap pipeline — what the
// decomposition and the scheduler produced. With -in it reads an HLO
// text file instead, checks that it parses, verifies and fits a
// -devices ring, simulates it, and prints it back.
//
//	overlap hlo -model GPT_32B            # baseline HLO
//	overlap hlo -model GPT_32B -overlap   # after decomposition + scheduling
//	overlap hlo -in prog.hlo -devices 8   # parse a dump, verify, simulate
func setupHLO(fs *flag.FlagSet, stdout, stderr io.Writer) func() error {
	f := cli.Defaults()
	f.Devices = 0 // only -in reads it, and must be told
	f.Register(fs, "model", "devices")
	in := fs.String("in", "", "parse, verify and simulate this HLO text file on a -devices N ring instead of building a model")
	apply := fs.Bool("overlap", false, "apply the overlap pipeline before printing")
	scheduler := fs.String("scheduler", "bottom-up", "scheduler: bottom-up, top-down or none")

	return func() error {
		if *in != "" {
			return checkHLO(stdout, stderr, *in, f.Devices)
		}
		cfg, err := models.ByName(f.Model)
		if err != nil {
			return err
		}
		c, err := overlap.BuildLayerStep(cfg)
		if err != nil {
			return err
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
				return fmt.Errorf("unknown scheduler %q", *scheduler)
			}
			report, err := overlap.Apply(c, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "// sites found=%d decomposed=%d rejected=%d fusions=%d\n",
				report.SitesFound, report.SitesDecomposed, report.SitesRejected, report.FusionsFormed)
		}
		fmt.Fprint(stdout, c.Format())
		return nil
	}
}

// checkHLO takes an HLO text file through the one front door outside
// text has (overlap.ParseHLO: structure, shapes, the ring), reports its
// peak memory and simulated step on stderr, and prints it back.
func checkHLO(stdout, stderr io.Writer, path string, devices int) error {
	if devices < 1 {
		return errors.New("-in needs -devices N: a program is verified for, and simulated on, a ring")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	c, err := overlap.ParseHLO(string(raw), devices)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "overlap hlo: parsed %d instructions, peak memory %.2f MiB\n",
		c.NumInstructions(), float64(overlap.PeakMemory(c).PeakBytes)/(1<<20))
	bd, err := overlap.Simulate(c, devices, overlap.TPUv4())
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "overlap hlo: step %.3f ms, %.0f%% exposed communication\n",
		1e3*bd.StepTime, 100*bd.CommFraction())
	fmt.Fprint(stdout, c.Format())
	return nil
}
