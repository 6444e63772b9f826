// Command overlapbench regenerates the paper's evaluation tables and
// figures on the simulated TPU-v4-like cluster.
//
// Usage:
//
//	overlapbench [flags] [experiment ...]
//
// With no arguments every experiment runs in presentation order. Known
// experiments: table1 table2 fig1 fig12 fig13 fig14 fig15 fig16 energy
// inference.
//
// With -json each experiment emits one JSON object per line (its id,
// headline speedup series, and rendered text), so benchmark
// trajectories can be tracked across revisions with standard tools.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"overlap"
)

func main() {
	// The wall-clock experiments can run on the process transport, which
	// re-executes this binary as its workers; hook before flag work.
	overlap.MaybeTransportWorker()

	linkGBs := flag.Float64("link-gbs", 0, "override per-direction link bandwidth (GB/s, 4-byte-element equivalent)")
	peakTF := flag.Float64("peak-tflops", 0, "override per-chip peak TFLOP/s")
	asJSON := flag.Bool("json", false, "emit one machine-readable JSON object per experiment")
	metricsOut := flag.String("metrics-out", "", "export telemetry to this file (Prometheus text, or JSON with a .json suffix)")
	kernelWorkers := flag.Int("kernel-workers", 0, "intra-op einsum kernel parallelism (0 = GOMAXPROCS); results are byte-identical for any value")
	transport := flag.String("transport", "chan", "fabric transport for the wall-clock experiments: chan or proc (the transport experiment always measures both)")
	flag.Parse()

	overlap.SetKernelWorkers(*kernelWorkers)
	tk, err := overlap.ParseTransport(*transport)
	if err != nil {
		fail(err)
	}
	overlap.SetExperimentTransport(tk)

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

	ids := flag.Args()
	if len(ids) == 0 {
		ids = overlap.ExperimentIDs()
	}
	enc := json.NewEncoder(os.Stdout)
	for _, id := range ids {
		out, err := overlap.RunExperimentStructured(id, spec)
		if err != nil {
			fail(err)
		}
		if *asJSON {
			if err := enc.Encode(out); err != nil {
				fail(err)
			}
			continue
		}
		fmt.Println(out.Text)
	}
	if *metricsOut != "" {
		if err := overlap.Metrics().WriteFile(*metricsOut); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "overlapbench: %v\n", err)
	os.Exit(1)
}
