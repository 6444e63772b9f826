package overlap

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sourceGuard is one "deleted, and must not grow back" rule, enforced by
// reading the tree: no line of the Go files under its roots may match
// its pattern. The rules used to be grep steps in ci.yml, where no
// development session could run them; here go test ./... does.
type sourceGuard struct {
	name, why string
	pattern   *regexp.Regexp
	// roots are files or directories relative to the repository root;
	// tests says whether _test.go files under them are covered too.
	roots []string
	tests bool
	// except exempts a matching line, by its file or its text (nil
	// exempts nothing).
	except func(path, line string) bool
}

func under(dirs ...string) func(path, line string) bool {
	return func(path, _ string) bool {
		for _, dir := range dirs {
			if strings.HasPrefix(path, dir) {
				return true
			}
		}
		return false
	}
}

var sourceGuards = []sourceGuard{
	{
		name: "split-K lives in the program text",
		why: "an einsum's split-K factor is hlo.Instruction.SplitK, stamped by core.Apply: nothing outside internal/tensor " +
			"reads or writes the tensor-level bare-call default, and no side channel carries the factor beside the program",
		pattern: regexp.MustCompile(`tensor\.(Set)?KernelSplitK|SplitKInherit|ExplicitSplitK|(Interpret|InterpretAll|EvalLocal)SplitK`),
		roots:   []string{"internal", "cmd", "overlap.go"},
		except:  under("internal/tensor/"),
	},
	{
		name:    "one span type, one Chrome encoder",
		why:     "executors and the simulator record obs.Span and obs.RunTrace is the only renderer input: no second span struct, encoder or track constants",
		pattern: regexp.MustCompile(`\b(TraceEvent|TraceJSON|TraceTID[A-Za-z]*)\b`),
		roots:   []string{"."},
		tests:   true,
		except:  under("bench/", "guard_test.go"),
	},
	{
		name:    "one span type: the sim shims are for bench/ only",
		why:     "sim.Spans and sim.Attribute survive for the frozen bench/: call obs.* directly",
		pattern: regexp.MustCompile(`sim\.(Spans|Attribute)\(`),
		roots:   []string{"."},
		tests:   true,
		except:  under("bench/", "guard_test.go"),
	},
	{
		name:    "the device loop walks the tape: no value map",
		why:     "devices execute the lowered tape over dense slots, not a per-instruction value map",
		pattern: regexp.MustCompile(regexp.QuoteMeta(`map[*hlo.Instruction]*tensor.Tensor`)),
		roots:   []string{"internal/runtime/device.go"},
	},
	{
		name:    "the device loop walks the tape: planned buffers only",
		why:     "the device and rendezvous paths neither clone received or updated values nor allocate un-planned tensors",
		pattern: regexp.MustCompile(`\.Clone\(\)|CopyInto\(nil|tensor\.New\(`),
		roots:   []string{"internal/runtime/device.go", "internal/runtime/rendezvous.go"},
	},
	{
		name:    "the device loop walks the tape: one walker",
		why:     "no second device walker for loop bodies, no per-call group lookup",
		pattern: regexp.MustCompile(`func \(d \*device\) (runSeq|runLoop)|func \(e \*engine\) groupOf`),
		roots:   []string{"internal/runtime"},
		tests:   true,
	},
	{
		name: "one front door, one ledger",
		why: "bench/ + BENCHMARK.json is the only source of a measured number and cmd/overlap the only way into a run: " +
			"no committed snapshot or its producer, no ambient pack-cache switch, transport global or per-binary argument generator",
		pattern: regexp.MustCompile(`BENCH_[a-z]+\.json|SetPackCache\(|SetExperimentTransport|func randomArgs`),
		roots:   []string{"."},
		except:  under("bench/"),
	},
	{
		name:    "lower once: runtime.Compile is lower's only caller",
		why:     "validation and lowering run once per Executable",
		pattern: regexp.MustCompile(`(^|[^A-Za-z_.])lower\(`),
		roots:   []string{"internal/runtime"},
		except: func(_, line string) bool {
			return strings.Contains(line, "func lower(") || strings.Contains(line, "t, err := lower(c, numDevices, spec)")
		},
	},
	{
		name:    "lower once: repeated-run paths hold the Executable",
		why:     "the daemon, the training loop and the tuner compile once and call (*Executable).Run, never the one-shot Run",
		pattern: regexp.MustCompile(`runtime\.(Run|RunContext)\(`),
		roots:   []string{"internal/serve", "internal/train", "internal/autotune"},
	},
	{
		name:    "lower once: one timer per link",
		why:     "the channel transport paces a link with its pacer, not a timer per parcel",
		pattern: regexp.MustCompile(`time\.NewTimer`),
		roots:   []string{"internal/runtime/transport_chan.go"},
	},
	{
		name: "one plan record",
		why: "autotune.Plan is the only record of a tuning decision, built where stage 2 picks its winner and stored one file per " +
			"fingerprint: the decision cache's second encoding and the rebuild that made a plan from a result stay deleted",
		pattern: regexp.MustCompile(`\b(cacheEntry|cacheFile|cacheVersion|loadCache|cacheLookup|cacheStore|cacheStoreMu|countUnique|PlanFromResult)\b`),
		roots:   []string{"."},
	},
}

// TestSourceGuards runs every rule over the tree, then the two checks
// that count files instead of matching lines.
func TestSourceGuards(t *testing.T) {
	for _, g := range sourceGuards {
		for _, root := range g.roots {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					if path != "." && strings.HasPrefix(d.Name(), ".") {
						return fs.SkipDir
					}
					return nil
				}
				if !strings.HasSuffix(path, ".go") || (!g.tests && strings.HasSuffix(path, "_test.go")) {
					return nil
				}
				return g.scan(t, path)
			})
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
		}
	}

	if snapshots, _ := filepath.Glob("BENCH_*.json"); len(snapshots) != 0 {
		t.Errorf("one front door, one ledger: committed benchmark snapshots %v: numbers come from go run ./bench", snapshots)
	}
	mainFunc := regexp.MustCompile(`(?m)^func main\(\)`)
	mains := 0
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err == nil && mainFunc.Match(data) {
			mains++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if mains > 5 {
		t.Errorf("one front door, one ledger: cmd/ holds %d mains (overlap, overlapd, traceviz, hlodump, promlint): add a subcommand to cmd/overlap instead", mains)
	}
}

func (g sourceGuard) scan(t *testing.T, path string) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	lines := bufio.NewScanner(file)
	lines.Buffer(nil, 1<<20)
	for n := 1; lines.Scan(); n++ {
		if line := lines.Text(); g.pattern.MatchString(line) && (g.except == nil || !g.except(path, line)) {
			t.Errorf("%s:%d: %s: %s\n\t%s", path, n, g.name, g.why, strings.TrimSpace(line))
		}
	}
	return lines.Err()
}
