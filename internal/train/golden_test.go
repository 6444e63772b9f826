package train_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"overlap/internal/models"
	"overlap/internal/train"
)

// digestGolden is testdata/ddp_digests.golden.json: the configuration
// of one `overlap train -mode all` run and the gradient and weight
// digest of every step of every mode.
type digestGolden struct {
	Model       string `json:"model"`
	Devices     int    `json:"devices"`
	Dim         int    `json:"dim"`
	Layers      int    `json:"layers"`
	Strategy    string `json:"strategy"`
	Steps       int    `json:"steps"`
	Seed        int64  `json:"seed"`
	BucketBytes int64  `json:"bucket_bytes"`
	Modes       []struct {
		Name  string `json:"name"`
		Steps []struct {
			GradDigest   string `json:"grad_digest"`
			WeightDigest string `json:"weight_digest"`
		} `json:"steps"`
	} `json:"modes"`
}

// TestTrainingDigestsGolden pins the bytes a training run produces:
// three SGD steps of the two-layer GPT_32B ddp miniature under the
// baseline, rolled and overlap pipelines must reproduce the committed
// per-step gradient and weight digests, each step also checked bitwise
// against the interpreter. Past the first step the modes differ (the
// decomposition reassociates the gradient reduction), so a changed
// reduction order, data generator or update rule fails here by value.
func TestTrainingDigestsGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/ddp_digests.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g digestGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	base, err := models.ByName(g.Model)
	if err != nil {
		t.Fatal(err)
	}
	strategy, err := train.ParseStrategy(g.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := train.FromModel(base, g.Devices, g.Dim, g.Layers, strategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Modes) != 3 {
		t.Fatalf("golden holds %d modes, want baseline, rolled, overlap", len(g.Modes))
	}
	for _, mode := range g.Modes {
		opts := train.Options{Steps: g.Steps, Seed: g.Seed, Check: true}
		switch mode.Name {
		case "baseline":
		case "rolled":
			p := overlapOptions()
			p.Rolled = true
			opts.Pipeline = &p
		case "overlap":
			p := overlapOptions()
			p.GradBucketBytes = g.BucketBytes
			opts.Pipeline = &p
		default:
			t.Fatalf("golden names unknown mode %q", mode.Name)
		}
		res, err := train.Run(context.Background(), cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", mode.Name, err)
		}
		if len(res.Steps) != len(mode.Steps) {
			t.Fatalf("%s: ran %d steps, golden holds %d", mode.Name, len(res.Steps), len(mode.Steps))
		}
		for i, want := range mode.Steps {
			got := res.Steps[i]
			if !got.Checked {
				t.Errorf("%s step %d: not checked against the interpreter", mode.Name, i)
			}
			if got.GradDigest != want.GradDigest {
				t.Errorf("%s step %d: gradient digest %s, golden %s", mode.Name, i, got.GradDigest, want.GradDigest)
			}
			if got.WeightDigest != want.WeightDigest {
				t.Errorf("%s step %d: weight digest %s, golden %s", mode.Name, i, got.WeightDigest, want.WeightDigest)
			}
		}
	}
}
