// Command overlap is the front door to the reproduction: every way of
// running a program — executing a miniature on the concurrent runtime,
// autotuning it, training it, serving it, regenerating the paper's
// simulated evaluation — and every way of looking at one — its HLO, its
// trace — is a subcommand, and all of them take their program,
// execution and output flags from one shared set (cmd/internal/cli).
//
// Usage:
//
//	overlap run -model GPT_32B -devices 4 -check        # baseline, rolled, overlap; bit-checked
//	overlap run -mode overlap -attrib -trace run.json   # per-collective attribution + Perfetto trace
//	overlap run -transport proc -check                  # one worker process per device
//	overlap run -fault drop:link:0-1 -deadline 2s       # chaos: inject a fault, bound the stall
//	overlap tune -model GPT_32B -plan-out plan.json     # autotune, write the compiled plan
//	overlap run -plan-in plan.json -check               # execute a plan, zero compilation
//	overlap train -strategy ddp -steps 3 -check -attrib # fwd+bwd+SGD, bucketed gradient all-reduce
//	overlap serve -addr :8080                           # the HTTP/JSON daemon
//	overlap trace -model GPT_32B -overlap -attrib       # ASCII timeline of the simulated layer
//	overlap trace -trace-in run.json                    # ... of a recorded run trace
//	overlap hlo -model GPT_32B -overlap                 # the HLO after the pipeline
//	overlap experiments fig12 fig13                     # the paper's tables and figures (simulated)
//
// `overlap <subcommand> -h` lists a subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"overlap"
	"overlap/cmd/internal/cli"
)

// command is one subcommand. setup registers its flags on fs and
// returns the body dispatch runs once they are parsed.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet, stdout, stderr io.Writer) func() error
}

var commands = []command{
	{"run", "execute a model miniature (or a compiled plan) on the concurrent runtime", setupRun},
	{"tune", "autotune a miniature's overlap pipeline; write the compiled plan", setupTune},
	{"train", "execute fwd+bwd+SGD training steps, overlapping the gradient communication", setupTrain},
	{"serve", "serve compile and run requests over HTTP/JSON until SIGINT or SIGTERM", setupServe},
	{"trace", "render a run trace (simulated, or read from a file) as a timeline or Chrome trace", setupTrace},
	{"hlo", "print a model's HLO before or after the pipeline, or check and simulate an HLO file", setupHLO},
	{"experiments", "regenerate the paper's evaluation tables and figures on the simulator", setupExperiments},
}

func main() {
	// A proc-transport run — the CLI's or a served one — re-executes this
	// binary as its workers; the worker hook must run before any flag or
	// model work.
	overlap.MaybeTransportWorker()
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs one subcommand and returns the process exit status: 0
// on success, 1 when the subcommand failed, 2 on a usage error.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, cmd := range commands {
			if cmd.name != args[0] {
				continue
			}
			fs := flag.NewFlagSet("overlap "+cmd.name, flag.ContinueOnError)
			fs.SetOutput(stderr)
			body := cmd.setup(fs, stdout, stderr)
			if err := fs.Parse(args[1:]); err != nil {
				if errors.Is(err, flag.ErrHelp) {
					return 0
				}
				return 2
			}
			if err := body(); err != nil {
				fmt.Fprintf(stderr, "overlap %s: %v\n", cmd.name, err)
				return 1
			}
			return 0
		}
		fmt.Fprintf(stderr, "overlap: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: overlap <subcommand> [flags]")
	for _, cmd := range commands {
		fmt.Fprintf(stderr, "  %-12s %s\n", cmd.name, cmd.summary)
	}
	return 2
}

// around runs body between the process-wide effects the shared flags
// name: the live /metrics endpoint before it; the telemetry export after
// it — even when body failed, because a chaos run's fault and abort
// counters are exactly what the caller wants to see — and, under -serve,
// staying up.
func around(f *cli.Flags, stdout io.Writer, body func() error) error {
	if f.Serve != "" {
		_, addr, err := overlap.ServeMetrics(f.Serve)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "serving telemetry at http://%s/metrics\n", addr)
	}
	runErr := body()
	if f.MetricsOut != "" {
		if err := overlap.Metrics().WriteFile(f.MetricsOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote telemetry to %s\n", f.MetricsOut)
	}
	if runErr != nil {
		return runErr
	}
	if f.Serve != "" {
		fmt.Fprintln(stdout, "done; serving /metrics until interrupted")
		select {}
	}
	return nil
}

// runOptions maps the execution flags onto runtime options and reports
// any injected faults on stdout.
func runOptions(f *cli.Flags, stdout io.Writer) (overlap.RunOptions, error) {
	opts, err := f.RunOptions()
	if err == nil && opts.Faults != nil {
		fmt.Fprintf(stdout, "injecting faults: %s (seed %d)\n", opts.Faults, opts.Faults.Seed)
	}
	return opts, err
}

// printClock reports the one wire scale a command's runs inject and
// where the scale came from.
func printClock(w io.Writer, scale float64, source string) {
	fmt.Fprintf(w, "clock: wire × %.4g (%s)\n", scale, source)
}

// modes expands -mode into the pipelines to run, in presentation order.
func modes(mode string) ([]string, error) {
	switch mode {
	case "all":
		return []string{"baseline", "rolled", "overlap"}, nil
	case "baseline", "rolled", "overlap":
		return []string{mode}, nil
	}
	return nil, fmt.Errorf("unknown mode %q (want baseline, rolled, overlap, or all)", mode)
}
