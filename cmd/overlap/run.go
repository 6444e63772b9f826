package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"overlap"
	"overlap/cmd/internal/cli"
	"overlap/internal/core"
)

// setupRun is `overlap run`: execute a named model's layer step for
// real on the concurrent runtime — one goroutine (or, with -transport
// proc, one worker process) per device, asynchronous CollectivePermutes
// — and print a compute / communication / exposed-stall breakdown of
// the replayed step (measured compute, modeled wire) rather than the
// simulator's predictions. Every mode injects wire at one clock, measured on the
// untransformed miniature, so the modes differ only in their schedules.
// With -plan-in a compiled plan runs instead of a model, at its clock.
func setupRun(fs *flag.FlagSet, stdout, _ io.Writer) func() error {
	f := cli.Defaults()
	f.Register(fs, "model", "devices", "dim", "mode",
		"transport", "kernel-splitk", "fault", "fault-seed", "deadline", "check",
		"attrib", "trace", "trace-out", "metrics-out", "serve")
	planIn := fs.String("plan-in", "", "execute a compiled Plan artifact (from overlap tune -plan-out or overlap serve's /v1/compile) instead of building a model; zero compilation")

	return func() error {
		ropts, err := runOptions(f, stdout)
		if err != nil {
			return err
		}
		return around(f, stdout, func() error {
			if *planIn != "" {
				return runPlan(f, stdout, ropts, *planIn)
			}
			pipelines, err := modes(f.Mode)
			if err != nil {
				return err
			}
			mini, err := f.Miniature()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s miniature: %d devices, model dim %d, ff dim %d, %d tokens\n",
				mini.Name, f.Devices, mini.ModelDim, mini.FFDim, mini.Tokens())
			c, err := overlap.BuildLayerStep(mini)
			if err != nil {
				return err
			}
			if ropts.TimeScale, err = f.Clock(c, f.Devices); err != nil {
				return err
			}
			printClock(stdout, ropts.TimeScale, "measured on the untransformed miniature")
			for _, mode := range pipelines {
				if err := runMode(f, stdout, ropts, mini, mode); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// runMode builds the miniature layer graph, applies the pipeline the
// mode names, and executes it.
func runMode(f *cli.Flags, stdout io.Writer, ropts overlap.RunOptions, cfg overlap.ModelConfig, mode string) error {
	c, err := overlap.BuildLayerStep(cfg)
	if err != nil {
		return err
	}
	switch mode {
	case "rolled":
		// The decomposition as a blocking counted loop: the paper's
		// no-overlap form, unfused and unscheduled.
		opts := core.Options{Spec: ropts.Spec, Knobs: core.Knobs{Rolled: true, Scheduler: core.SchedulerNone, KernelSplitK: f.KernelSplitK}}
		if _, err := core.Apply(c, opts); err != nil {
			return err
		}
	case "overlap":
		// The miniature's shapes would not pass the cost model (which
		// prices the full-size model); decompose unconditionally.
		opts := overlap.DefaultOptions(ropts.Spec)
		opts.UseCostModel = false
		opts.KernelSplitK = f.KernelSplitK
		if _, err := overlap.Apply(c, opts); err != nil {
			return err
		}
	}
	// -trace and -trace-out name one file each: the overlap mode's.
	return execute(f, stdout, ropts, mode, cfg.Name, c, f.Devices, mode == "overlap")
}

// runPlan loads a compiled Plan artifact and executes it directly: no
// model build, no pipeline Apply, no tuning — the round-trip proof that
// the serialized artifact is self-contained.
func runPlan(f *cli.Flags, stdout io.Writer, ropts overlap.RunOptions, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	plan, c, err := overlap.DecodePlan(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "plan %s: %d devices, winner %s (compiled %s)\n",
		plan.Fingerprint, plan.Devices, plan.BestName, plan.Created)
	ropts.TimeScale = plan.TimeScale
	printClock(stdout, ropts.TimeScale, "carried by the plan")
	return execute(f, stdout, ropts, "plan", "plan:"+plan.Fingerprint, c, plan.Devices, true)
}

// execute is the one run routine: execute c on the runtime, compare
// every device's result bitwise to the lockstep interpreter under
// -check, print the measured breakdown (and, with -attrib, where each
// collective's wire time hid), and — when artifacts is set — render the
// run's RunTrace to the -trace-out and -trace files.
func execute(f *cli.Flags, stdout io.Writer, ropts overlap.RunOptions, label, model string, c *overlap.Computation, devices int, artifacts bool) error {
	chromeOut, artifactOut := "", ""
	if artifacts {
		chromeOut, artifactOut = f.Trace, f.TraceOut
	}
	ropts.Trace = f.Attrib || chromeOut != "" || artifactOut != ""
	args := cli.Args(c)
	ctx, cancel := f.Context()
	defer cancel()
	res, err := overlap.RunContext(ctx, c, devices, args, ropts)
	if err != nil {
		return err
	}

	mark := ""
	if f.Check {
		if err := overlap.CheckRun(c, devices, args, res); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		mark = "  [checked]"
	}
	b := res.Breakdown
	fmt.Fprintf(stdout, "%-9s step %8.2fms  compute %8.2fms  wire %8.2fms  exposed %8.2fms  async %d  in-flight %d%s\n",
		label, b.StepTime*1e3, b.Compute*1e3, b.CollectiveWire*1e3, b.Exposed*1e3,
		b.AsyncTransfers, b.PeakInFlight, mark)
	if !ropts.Trace {
		return nil
	}

	// One RunTrace, one attribution: the -attrib table and both files
	// read the report NewRunTrace computed.
	trace := overlap.NewRunTrace(res.RunID, "run", res.Trace)
	trace.Model = model
	trace.Devices = devices
	trace.StepMS = b.StepTime * 1e3
	if f.Attrib {
		printAttribution(stdout, trace)
	}
	if artifactOut != "" {
		data, err := trace.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(artifactOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "          wrote run trace %s to %s\n", trace.ID, artifactOut)
	}
	if chromeOut != "" {
		data, err := trace.ChromeTrace()
		if err != nil {
			return err
		}
		if err := os.WriteFile(chromeOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "          wrote %d trace events to %s (run %s)\n", len(res.Trace), chromeOut, trace.ID)
	}
	return nil
}
