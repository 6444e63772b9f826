package core

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"overlap/internal/hlo"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestGoldenDecomposedHLO pins the exact textual form of the decomposed
// programs for the canonical 4-way sites: any change to the emitted
// structure (shard indices, permute pairs, fusion scopes, schedule)
// shows up as a golden diff. Run with -update to accept intentional
// changes.
func TestGoldenDecomposedHLO(t *testing.T) {
	cases := []struct {
		name string
		kind siteKind
		opts Options
	}{
		{"ag_noncontracting_uni", siteAGNonContracting, forceOpts(false, false, SchedulerNone, false)},
		{"ag_contracting_bidi", siteAGContracting, forceOpts(true, true, SchedulerNone, false)},
		{"rs_unrolled", siteRS, forceOpts(true, false, SchedulerNone, false)},
		{"rs_bidi_scheduled", siteRS, forceOpts(true, true, SchedulerBottomUp, true)},
		{"ag_rolled", siteAGNonContracting, rolledOpts()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1)) // content is irrelevant; structure is pinned
			site := makeSite(tc.kind, ringGroups(4), 4, rng)
			c := site.build()
			if _, err := Apply(c, tc.opts); err != nil {
				t.Fatal(err)
			}
			got := c.Format()
			path := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if string(want) != got {
				t.Fatalf("decomposed HLO changed; run with -update if intended.\n--- got ---\n%s", got)
			}

			// The split-K factor only stamps: below 2 the text is the
			// golden's, at 2 it is the golden's with every einsum — top
			// level, loop body and fusion body alike — marked, and the
			// marked text survives Format∘Parse∘Format.
			for _, factor := range []int{1, 2} {
				opts := tc.opts
				opts.KernelSplitK = factor
				c := site.build()
				if _, err := Apply(c, opts); err != nil {
					t.Fatal(err)
				}
				text := c.Format()
				if factor == 2 {
					if marked, einsums := strings.Count(text, `" splitk=2`), strings.Count(got, " einsum("); marked != einsums {
						t.Fatalf("factor 2 marked %d of %d einsums:\n%s", marked, einsums, text)
					}
					parsed, err := hlo.Parse(text)
					if err != nil {
						t.Fatal(err)
					}
					if parsed.Format() != text {
						t.Fatalf("stamped text does not round-trip:\n%s", text)
					}
					text = strings.ReplaceAll(text, " splitk=2", "")
				}
				if text != got {
					t.Fatalf("factor %d changed more than the stamp:\n%s", factor, text)
				}
			}
		})
	}
}
