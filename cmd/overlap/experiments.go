package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"overlap"
	"overlap/cmd/internal/cli"
)

// setupExperiments is `overlap experiments [flags] [id ...]`:
// regenerate the paper's evaluation tables and figures on the simulated
// TPU-v4-like cluster. With no ids every experiment runs in
// presentation order (overlap.ExperimentIDs). With -json each
// experiment emits one JSON object per line — its id, headline speedup
// series and rendered text — so trajectories can be tracked across
// revisions with standard tools.
func setupExperiments(fs *flag.FlagSet, stdout, _ io.Writer) func() error {
	f := cli.Defaults()
	f.Register(fs, "link-gbs", "peak-tflops", "metrics-out")
	asJSON := fs.Bool("json", false, "emit one machine-readable JSON object per experiment")

	return func() error {
		spec, err := f.Spec()
		if err != nil {
			return err
		}
		ids := fs.Args()
		if len(ids) == 0 {
			ids = overlap.ExperimentIDs()
		}
		enc := json.NewEncoder(stdout)
		for _, id := range ids {
			out, err := overlap.RunExperimentStructured(id, spec)
			if err != nil {
				return err
			}
			if *asJSON {
				if err := enc.Encode(out); err != nil {
					return err
				}
				continue
			}
			fmt.Fprintln(stdout, out.Text)
		}
		// Written without a report line: under -json stdout is the data.
		if f.MetricsOut != "" {
			return overlap.Metrics().WriteFile(f.MetricsOut)
		}
		return nil
	}
}
