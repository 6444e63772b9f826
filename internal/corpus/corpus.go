// Package corpus builds the programs the compile path's tests share —
// the printer's byte-for-byte pin in hlo, the per-stage checks in core
// and the flat-loop oracle in autotune all run over the same set, so a
// shape one of them covers is a shape all of them cover:
//
//   - core's five golden decompositions, parsed back from their text
//     (already rewritten programs: async pairs, fusion bodies, a rolled
//     loop);
//   - three Table 1/2 miniatures on 2- and 4-device rings;
//   - megatron and ddp training steps at dim 4 and 8, one and two
//     layers (ddp is where the pre stage has work to do, and where the
//     plainest candidate prints the baseline's own text).
//
// Only tests import it.
package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"overlap/internal/hlo"
	"overlap/internal/models"
	"overlap/internal/train"
)

// Program is one corpus entry: an untransformed (or, for the goldens,
// already transformed) computation and the ring size it was built for.
type Program struct {
	Name    string
	Devices int
	Comp    *hlo.Computation
}

// Long reports that sweeping the program's whole candidate space takes
// seconds rather than milliseconds — every training step but the
// smallest of each strategy. Sweeps skip these under -short and under
// the race detector (RaceEnabled), where single-goroutine compile code
// only gets slower.
func (p Program) Long() bool {
	return strings.HasPrefix(p.Name, "train/") && !strings.HasSuffix(p.Name, "/d4/l1")
}

// Programs builds the corpus afresh; callers own the computations.
func Programs() ([]Program, error) {
	var out []Program

	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return nil, fmt.Errorf("corpus: cannot locate the source tree")
	}
	goldens, err := filepath.Glob(filepath.Join(filepath.Dir(self), "..", "core", "testdata", "*.golden"))
	if err != nil || len(goldens) != 5 {
		return nil, fmt.Errorf("corpus: want the five core goldens, found %d (%v)", len(goldens), err)
	}
	for _, path := range goldens {
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		c, err := hlo.Parse(string(text))
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", path, err)
		}
		out = append(out, Program{"golden/" + filepath.Base(path), 4, c})
	}

	for _, model := range []string{"GPT_32B", "GLaM_1T", "T5_300B"} {
		cfg, err := models.ByName(model)
		if err != nil {
			return nil, err
		}
		for _, devices := range []int{2, 4} {
			mini, err := models.Miniature(cfg, devices, 2)
			if err != nil {
				return nil, err
			}
			c, err := models.BuildLayerStep(mini)
			if err != nil {
				return nil, err
			}
			out = append(out, Program{fmt.Sprintf("%s/n%d", model, devices), devices, c})
		}
	}

	cfg, err := models.ByName("GPT_32B")
	if err != nil {
		return nil, err
	}
	for _, strategy := range []train.Strategy{train.StrategyMegatron, train.StrategyDDP} {
		for _, dim := range []int{4, 8} {
			for _, layers := range []int{1, 2} {
				const devices = 4
				tc, err := train.FromModel(cfg, devices, dim, layers, strategy)
				if err != nil {
					return nil, err
				}
				prog, err := train.Build(tc)
				if err != nil {
					return nil, err
				}
				out = append(out, Program{fmt.Sprintf("train/%s/d%d/l%d", strategy, dim, layers), devices, prog.Comp})
			}
		}
	}
	return out, nil
}
