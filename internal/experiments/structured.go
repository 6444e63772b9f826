package experiments

import (
	"fmt"

	"overlap/internal/machine"
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

// IDs lists the experiments RunStructured accepts, in presentation
// order.
func IDs() []string {
	return []string{
		"table1", "table2", "fig1", "fig12", "fig13", "fig14", "fig15", "fig16",
		"energy", "inference",
		// Extensions beyond the paper's evaluation section.
		"memory", "rolled", "inference-sweep", "pipeline", "gpu",
	}
}

// RunStructured regenerates one experiment and returns both its textual
// report and its numeric series.
func RunStructured(id string, spec machine.Spec) (Structured, error) {
	s := Structured{Experiment: id}
	speedups := func(comps []Comparison) {
		for _, c := range comps {
			s.Speedups = append(s.Speedups, c.Speedup())
			s.Models = append(s.Models, c.Baseline.Config.Name)
		}
	}
	var err error
	switch id {
	case "table1":
		s.Text = Table1()
	case "table2":
		s.Text = Table2()
	case "fig1":
		s.Text, err = Fig1(spec)
	case "fig12":
		var comps []Comparison
		s.Text, comps, err = Fig12(spec)
		speedups(comps)
	case "fig13":
		var comps []Comparison
		s.Text, comps, err = Fig13(spec)
		speedups(comps)
	case "fig14":
		s.Text, s.Speedups, err = Fig14(spec)
	case "fig15":
		s.Text, s.Speedups, err = Fig15(spec)
	case "fig16":
		s.Text, s.Speedups, err = Fig16(spec)
	case "energy":
		s.Text, err = Energy(spec)
	case "inference":
		var comp Comparison
		s.Text, comp, err = Inference(spec)
		if err == nil {
			s.Speedups = []float64{comp.Speedup()}
		}
	case "memory":
		s.Text, err = Memory(spec)
	case "rolled":
		s.Text, err = Rolled(spec)
	case "inference-sweep":
		s.Text, err = InferenceSweep(spec)
	case "pipeline":
		s.Text, err = Pipeline(spec)
	case "gpu":
		s.Text, err = GPU(spec)
	default:
		return s, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, IDs())
	}
	if err != nil {
		return Structured{}, err
	}
	return s, nil
}
