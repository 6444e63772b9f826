package experiments

import (
	"fmt"

	"overlap/internal/machine"
	"overlap/internal/models"
)

// Structured is the machine-readable form of one experiment run: the
// rendered text plus whatever numeric series the experiment produced,
// so benchmark trajectories can be tracked across revisions without
// scraping tables.
type Structured struct {
	// Experiment is the runner id (see IDs).
	Experiment string `json:"experiment"`
	// Speedups holds the experiment's headline series where one exists:
	// per-model baseline/overlapped step-time ratios for the evaluation
	// figures, ablation ratios for Figures 14-16.
	Speedups []float64 `json:"speedups,omitempty"`
	// Models names the rows Speedups is indexed by, when model-indexed.
	Models []string `json:"models,omitempty"`
	// Text is the human-readable report, identical to the non-JSON
	// output.
	Text string `json:"text"`
}

// Result is what a runner regenerates: the Structured report, plus the
// comparisons behind it where the experiment's headline is a
// baseline/overlapped comparison (Figures 12 and 13, §7.1).
type Result struct {
	Structured
	Comparisons []Comparison
}

// report is a Result that is only text.
func report(text string) Result { return Result{Structured: Structured{Text: text}} }

// compared is a Result whose headline series is comps' speedups,
// indexed by model.
func compared(text string, comps []Comparison) Result {
	r := Result{Structured: Structured{Text: text}, Comparisons: comps}
	for _, c := range comps {
		r.Speedups = append(r.Speedups, c.Speedup())
		r.Models = append(r.Models, c.Baseline.Config.Name)
	}
	return r
}

// runners is the evaluation in presentation order: each entry's runner
// regenerates one table or figure. IDs and Regenerate read it, and it is
// the one place a new experiment is added.
var runners = []struct {
	id  string
	run func(machine.Spec) (Result, error)
}{
	{"table1", configTable("Table 1: evaluated applications", models.Table1)},
	{"table2", configTable("Table 2: weak-scaled GPT models", models.Table2)},
	{"fig1", fig1},
	{"fig12", fig12},
	{"fig13", fig13},
	{"fig14", fig14},
	{"fig15", fig15},
	{"fig16", fig16},
	{"energy", energy},
	{"inference", inference},
	// Extensions beyond the paper's evaluation section.
	{"memory", memory},
	{"rolled", rolled},
	{"inference-sweep", inferenceSweep},
	{"pipeline", pipeline},
	{"gpu", gpu},
}

// IDs lists the experiments RunStructured accepts, in presentation
// order.
func IDs() []string {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.id
	}
	return ids
}

// Regenerate runs experiment id on spec.
func Regenerate(id string, spec machine.Spec) (Result, error) {
	for _, r := range runners {
		if r.id != id {
			continue
		}
		res, err := r.run(spec)
		if err != nil {
			return Result{}, err
		}
		res.Experiment = id
		return res, nil
	}
	return Result{Structured: Structured{Experiment: id}}, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, IDs())
}

// RunStructured regenerates one experiment and returns both its textual
// report and its numeric series.
func RunStructured(id string, spec machine.Spec) (Structured, error) {
	r, err := Regenerate(id, spec)
	return r.Structured, err
}
