package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func readFullRun(path string) (*fullRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f fullRun
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (want the results.json of a full run)", path)
	}
	return &f, nil
}

// worsening returns how much worse b is than a as a share of a, signed
// so that positive is worse whichever direction is better.
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if spec.Better == "higher" {
		d = -d
	}
	return d
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both values, the change and the bound, then the per-layer rows that
// moved by more than 10%. It reports false when a gated row, or any
// fail_frac, is worse than its bound. The four timing metrics get the
// same verdicts but do not decide the result: two single runs of one
// commit differ by 20% and more on the reference box, so "worse" there
// is a reason to run alternating pairs, not a finding. Where the
// segment spread of either side exceeds the bound, a change no larger
// than that spread is marked unresolved rather than unchanged or worse:
// the run could not have resolved it. A change larger than the spread
// gets its verdict however noisy the run was.
func compareFiles(out io.Writer, oldPath, newPath string) (bool, error) {
	a, err := readFullRun(oldPath)
	if err != nil {
		return false, err
	}
	b, err := readFullRun(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "old: %s commit=%s nproc=%d GOMAXPROCS=%d seed=%d\n", oldPath, a.Host.Commit, a.Host.NProc, a.Host.GOMAXPROCS, a.Host.Seed)
	fmt.Fprintf(out, "new: %s commit=%s nproc=%d GOMAXPROCS=%d seed=%d\n", newPath, b.Host.Commit, b.Host.NProc, b.Host.GOMAXPROCS, b.Host.Seed)

	ok := true
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tworse by\tbound\tverdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tMISSING\n", w.Name)
			ok = false
			continue
		}
		for _, spec := range endToEnd {
			ma, mb := wa.EndToEnd[spec.Name], wb.EndToEnd[spec.Name]
			d := worsening(spec, ma.Value, mb.Value)
			verdict := "ok"
			noise := math.Max(ma.Spread, mb.Spread)
			switch {
			case spec.Bound > 0 && noise > spec.Bound && math.Abs(d) <= noise:
				verdict = "unresolved"
			case d > spec.Bound && (spec.Gated || spec.Name == "fail_frac"):
				verdict = "REGRESSION"
				ok = false
			case d > spec.Bound:
				verdict = "worse (not gated)"
			case d < -spec.Bound && spec.Bound > 0:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, spec.Name, ma.Value, mb.Value, spec.Unit, 100*d, 100*spec.Bound, verdict)
		}
	}
	tw.Flush()

	fmt.Fprintln(out, "\nper-layer metrics that moved by more than 10% (not gated; + is worse):")
	tw = tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, spec := range perLayer {
			ma, mb := wa.PerLayer[spec.Name], wb.PerLayer[spec.Name]
			if ma.NA && mb.NA {
				continue
			}
			if d := worsening(spec, ma.Value, mb.Value); math.Abs(d) > 0.10 {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\n", w.Name, spec.Name, ma.Value, mb.Value, spec.Unit, 100*d)
			}
		}
	}
	tw.Flush()
	return ok, nil
}
