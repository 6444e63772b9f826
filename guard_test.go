package overlap

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	goruntime "runtime"
	"strconv"
	"strings"
	"testing"
)

// sourceGuard is one "deleted, and must not grow back" rule, enforced by
// reading the tree: no line of the Go (or, by suffix, other) files
// under its roots may match its pattern. The rules used to be grep steps in ci.yml, where no
// development session could run them; here go test ./... does.
type sourceGuard struct {
	name, why string
	pattern   *regexp.Regexp
	// roots are files or directories relative to the repository root;
	// tests says whether _test.go files under them are covered too.
	roots []string
	tests bool
	// suffix names the files read under the roots: "" reads Go files.
	suffix string
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
			return strings.Contains(line, "func lower(") || strings.Contains(line, "t, err := lower(c, s, numDevices)")
		},
	},
	{
		name: "one lowering: the runtime reads the schedule",
		why: "sim.NewSchedule resolves a program's pairs, groups and trip counts once, at Compile, and the devices walk " +
			"what it resolved: no runtime code reads them off an instruction again",
		pattern: attrRead,
		roots:   []string{"internal/runtime"},
	},
	{
		name:    "one lowering: Compile lowers once",
		why:     "the runtime's one schedule is Compile's: every run, the clock and the fabric read the Executable's",
		pattern: regexp.MustCompile(`sim\.NewSchedule\(`),
		roots:   []string{"internal/runtime"},
		except: func(_, line string) bool {
			return strings.Contains(line, "s := sim.NewSchedule(c, numDevices, spec)")
		},
	},
	{
		name: "one lowering: the timing pass reads the schedule",
		why: "in sim only the lowering (timing.go, off the instruction it lowers) and the reference interpreter, the " +
			"oracle kept independent on purpose, read an instruction's pairs, groups and trip count",
		pattern: attrRead,
		roots:   []string{"internal/sim"},
		except: func(path, line string) bool {
			return path == "internal/sim/interpret.go" || path == "internal/sim/timing.go" && loweredRead.MatchString(line)
		},
	},
	{
		name:    "lower once: repeated-run paths hold the Executable",
		why:     "the daemon, the training loop and the tuner compile once and call (*Executable).Run, never the one-shot Run",
		pattern: regexp.MustCompile(`runtime\.(Run|RunContext)\(`),
		roots:   []string{"internal/serve", "internal/train", "internal/autotune"},
	},
	{
		name: "a served plan is lowered in one place",
		why: "autotune.CompileKeyed returns the program and the Executable it executed and checked, and the daemon caches " +
			"them as they are: nothing in internal/serve parses a plan's text or lowers a program again",
		pattern: regexp.MustCompile(`runtime\.Compile|\.Computation\(\)`),
		roots:   []string{"internal/serve"},
	},
	{
		name:    "a plan file is parsed once",
		why:     "overlap.DecodePlan returns the program it parsed to verify the file, and overlap run -plan-in runs that one",
		pattern: regexp.MustCompile(`\.Computation\(\)`),
		roots:   []string{"cmd/overlap/run.go"},
	},
	{
		name: "run state follows the schedule",
		why: "a transfer's instance and a collective's generation are the device's loop iteration, and fault state is indexed " +
			"by the schedule's links and devices: no per-op execution counter and no (src,dst)-keyed map grows back",
		pattern: regexp.MustCompile(`map\[\[2\]int\]|\[pc\](\+\+|\s*\+=)|\bcount\s+\[\]int`),
		roots:   []string{"internal/runtime"},
	},
	{
		name: "timing is a replay: no goroutine sleeps on the wire",
		why: "a run's timing is computed after the join from the costs its devices recorded, so nothing in the runtime waits on a timer: " +
			"only the process transport's reaper gives a worker its grace before the kill, and the deadline watchdog waits on the caller's context",
		pattern: regexp.MustCompile(`time\.(NewTimer|NewTicker|Sleep|After|AfterFunc|Tick)\b`),
		roots:   []string{"internal/runtime"},
		except: func(path, line string) bool {
			return path == "internal/runtime/transport_proc.go" && strings.Contains(line, "time.After(reapGrace)")
		},
	},
	{
		name: "timing is a replay: one place computes time",
		why: "devices record costs and the fabric moves data; sim's timing pass alone builds the spans and the breakdown, " +
			"for Simulate and for every run, so no second walk, clock, due or span slab grows back beside it",
		pattern: timeWrite,
		roots:   []string{"internal/runtime", "internal/sim"},
		except: func(path, line string) bool {
			return path == "internal/sim/timing.go" || strings.Contains(line, "unsafe.Sizeof(obs.Span{})")
		},
	},
	{
		name:    "the wire needs no goroutine",
		why:     "in process the fabric delivers at the post and a blocking collective's completing member at its kernel: no link or rendezvous goroutine stands between",
		pattern: regexp.MustCompile(`^\s*go\s`),
		roots:   []string{"internal/runtime/fabric.go", "internal/runtime/rendezvous.go"},
	},
	{
		name:    "one way a device receives: the rendezvous takes no mutex",
		why:     "members count themselves in with one atomic add and take their results from their mailboxes: no mutex, registry or wake-up channel comes back",
		pattern: regexp.MustCompile(`\bsync\.(RW)?Mutex\b|\.R?Lock\(\)|"sync"`),
		roots:   []string{"internal/runtime/rendezvous.go"},
	},
	{
		name: "one plan record",
		why: "autotune.Plan is the only record of a tuning decision, built where stage 2 picks its winner and stored one file per " +
			"fingerprint: the decision cache's second encoding and the rebuild that made a plan from a result stay deleted",
		pattern: regexp.MustCompile(`\b(cacheEntry|cacheFile|cacheVersion|loadCache|cacheLookup|cacheStore|cacheStoreMu|countUnique|PlanFromResult)\b`),
		roots:   []string{"."},
	},
	{
		name: "one definition of well-formed: no private ring check",
		why: "whether a program fits an n-device ring is hlo.VerifyRing's to say, and runtime.Compile, sim.Interpret and sim.Simulate ask it: " +
			"the runtime's program validator and the interpreter's own range, participation and nesting checks stay deleted",
		pattern: regexp.MustCompile(`\b(validateSeq|validateGroups|validatePairs|samePairs)\b|group device %d out of range|does not participate in|done users, want|nested loop %s|different sequence than`),
		roots:   []string{"internal", "cmd", "overlap.go"},
		except:  under("internal/hlo/"),
	},
	{
		name:    "one definition of well-formed: outside text goes through hlo.ParseProgram",
		why:     "a front door that calls hlo.Parse and verifies by hand can forget the ring: serve, the plan store and overlap hlo take text through the one call that cannot",
		pattern: regexp.MustCompile(`hlo\.Parse\(`),
		roots:   []string{"internal", "cmd", "overlap.go"},
		except:  under("internal/corpus/"), // the goldens core itself printed; only tests import it
	},
	{
		name: "attributes are immutable once built",
		why: "Clone, the fusion pass and MakeAsync share an instruction's hlo.Attrs with every copy, and instructions without " +
			"attributes share one zero Attrs, so a write through one would rewrite them all: only the builders and the parser " +
			"make an Attrs, and a test that breaks one on purpose edits a private copy (hlo.EditAttrs, on the line that calls it)",
		pattern: attrWrite,
		roots:   []string{"."},
		tests:   true,
		except: func(path, line string) bool {
			return path == "internal/hlo/builder.go" || path == "internal/hlo/parser.go" || strings.Contains(line, "EditAttrs(")
		},
	},
	{
		name: "the kernels' byte contract: no fused multiply-add",
		why: "every kernel rounds each product and then each sum, one term at a time, as einsumReference does; " +
			"a fused multiply-add rounds once and changes the bytes",
		pattern: regexp.MustCompile(`\bVF(N)?M(ADD|SUB)\w*`),
		roots:   []string{"internal/tensor"},
		suffix:  ".s",
	},
	{
		name:    "the kernels' byte contract: no fused multiply-add in Go",
		why:     "math.FMA rounds a product and a sum once: the kernels and the reference round each",
		pattern: regexp.MustCompile(`math\.FMA\b`),
		roots:   []string{"internal/tensor"},
	},
	{
		name:    "one run regime: kernel parallelism is GOMAXPROCS",
		why:     "the kernels run on GOMAXPROCS workers: no kernel-worker setter or flag comes back, and tests sweep GOMAXPROCS",
		pattern: regexp.MustCompile(`SetKernelWorkers|kernel-workers`),
		roots:   []string{"."},
		tests:   true,
		except:  under("bench/", "guard_test.go"),
	},
	{
		name:    "one run regime: telemetry is on in every shipped run",
		why:     "a plan's key reads no telemetry toggle because shipped code never flips it: only tests call SetEnabled",
		pattern: regexp.MustCompile(`\.SetEnabled\(`),
		roots:   []string{"."},
		except:  under("bench/"),
	},
}

// timeWrite matches a line that computes time: an obs.Span built, a
// Breakdown built with fields (a zero one computes nothing), or a
// Breakdown field written.
var timeWrite = regexp.MustCompile(`(^|[^\]\w.])obs\.Span\{|\bBreakdown\{[^}]|\.(StepTime|Compute|CollectiveWire|Exposed|AsyncTransfers|PeakInFlight)\s*([-+*/]?=[^=]|\+\+|--)`)

// attrRead matches a read of an instruction's pairs, groups or trip
// count; loweredRead one off the instruction the schedule's lowering
// names in.
var (
	attrRead    = regexp.MustCompile(`\.(Pairs|Groups|TripCount)\b`)
	loweredRead = regexp.MustCompile(`(^|[^.\w])in\.(Pairs|Groups|TripCount)\b`)
)

// attrWrite matches a statement that writes an hlo.Attrs, by the names
// of its fields: an assignment, increment or address taken through
// one, a copy, append or sort into one, a write through the Attrs
// pointer, and an Attrs literal (not a *Attrs type, as in a map's).
var attrWrite = func() *regexp.Regexp {
	field := `\.(Literal|Axis|PadLow|PadHigh|PadValue|Starts|Limits|Offsets|SliceSizes|Perm|Groups|CollectiveAxis|Pairs|TripCount|ResultIndex)\b`
	chain := `\w+(\.\w+)*` + field
	return regexp.MustCompile(strings.Join([]string{
		field + `(\[[^]]*\]|\.\w+)*\s*([-+*/]?=[^=]|\+\+|--)`,
		field + `(\[[^]]*\])*\s*,.*[^=!<>:]=[^=]`,
		`&` + chain,
		`\b(copy|append)\(\s*` + chain,
		`(slices\.(Sort\w*|Reverse)|sort\.\w+)\(\s*` + chain,
		`\*\w+(\.\w+)*\.Attrs\s*=[^=]`,
		`(^|[^*\w.])(hlo\.)?Attrs\{`,
	}, "|"))
}()

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
				suffix := g.suffix
				if suffix == "" {
					suffix = ".go"
				}
				if !strings.HasSuffix(path, suffix) || (!g.tests && strings.HasSuffix(path, "_test.go")) {
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
	// One binary: one main, and one proc-transport worker hook (in it)
	// outside the tests.
	mainFunc := regexp.MustCompile(`(?m)^func main\(\)`)
	workerHook := regexp.MustCompile(`MaybeTransportWorker\(\)`)
	var mains, hooks []string
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if mainFunc.Match(data) {
			mains = append(mains, path)
		}
		for range workerHook.FindAll(data, -1) {
			hooks = append(hooks, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) != 1 || len(hooks) != 1 {
		t.Errorf("one front door, one ledger: cmd/ holds mains %v and MaybeTransportWorker() calls %v, want one each, in cmd/overlap: add a subcommand there instead", mains, hooks)
	}
}

// TestNoHandSetWireScale keeps the clock derived: a run injects the wire
// scale runtime.Executable.Clock measures on its untransformed program,
// or the one its plan carries. So no non-test Go outside bench/ (frozen,
// and naming its workloads' scales until it adopts the clock) assigns a
// literal to a TimeScale field, in a composite literal or a statement,
// or names a timescale flag.
func TestNoHandSetWireScale(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "TimeScale" && literal(n.Value) {
					t.Errorf("%s: a hand-set TimeScale: derive the clock (runtime.Executable.Clock) or run at the plan's", fset.Position(n.Pos()))
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "TimeScale" && i < len(n.Rhs) && literal(n.Rhs[i]) {
						t.Errorf("%s: a hand-set TimeScale: derive the clock (runtime.Executable.Clock) or run at the plan's", fset.Position(n.Pos()))
					}
				}
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && strings.EqualFold(s, "timescale") {
					t.Errorf("%s: a timescale flag: the wire scale is measured, not an option", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServedAttributionIsBuiltOnRead keeps a served request paying only
// for its answer: non-test code in internal/serve names obs.Attribute in
// one function, traceArtifact, which builds a trace artifact when a GET
// or the TraceDir twin asks for one, and newHeader — run on every
// request — takes the efficiency from obs.OverlapEfficiency, never from
// a report.
func TestServedAttributionIsBuiltOnRead(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("internal/serve/*.go")
	if err != nil {
		t.Fatal(err)
	}
	attributing := map[string]int{} // function → how often it names obs.Attribute
	efficiency := false
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "obs" {
					return true
				}
				switch sel.Sel.Name {
				case "Attribute":
					attributing[fn.Name.Name]++
				case "OverlapEfficiency":
					efficiency = efficiency || fn.Name.Name == "newHeader"
				}
				return true
			})
		}
	}
	if len(attributing) != 1 || attributing["traceArtifact"] != 1 {
		t.Errorf("internal/serve names obs.Attribute in %v, want once, in traceArtifact: a served run is attributed only when its trace is read", attributing)
	}
	if !efficiency {
		t.Error("newHeader does not take the run's efficiency from obs.OverlapEfficiency")
	}
}

// literal reports whether e is built from literals alone.
func literal(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return literal(e.X)
	case *ast.UnaryExpr:
		return literal(e.X)
	case *ast.BinaryExpr:
		return literal(e.X) && literal(e.Y)
	}
	return false
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

// testOnly lists what under internal/ no shipped code reaches and stays
// anyway, each with the reason: a declaration by its id (dir.Name, or
// dir.Type.Method), a whole file by its path, or a whole package by its
// directory. TestNoTestOnlyCode fails on a declaration that belongs here
// and is missing, and on an entry that vouches for nothing.
var testOnly = map[string]string{
	"internal/corpus":      "the program list the compile path's tests share; only tests import it, by design",
	"internal/obs/lint.go": "LintPrometheus, the Prometheus exporter's test oracle: the tests of every export path (obs, the facade, the CLI's -metrics-out, a served /metrics) lint what it wrote",

	"internal/autotune.Result.ApplyBest": "public API (overlap.AutotuneResult), named by overlap.Autotune's doc; autotune/guard_test.go keeps it core.Apply's only caller in the package",
	"internal/core.SwapReshapeConcat":    "the paper's §5.4.3 fusion-friendliness rewrite, kept as the paper's artifact; no pipeline stage needs it on the graphs the builders emit",
	"internal/core.SwapReshapeSlice":     "as SwapReshapeConcat",
	"internal/hlo.Computation.Constant":  "builder for the constant opcode: the parser builds constants itself, tests and callers of the public overlap.Computation build them with this",
	"internal/hlo.Computation.Find":      "lookup by name for tests that assert on one instruction of a rewritten program",

	"internal/hlo.EditAttrs":                          "test hook: the one way to break a built instruction's attributes, on a private copy its clones and async partner do not share",
	"internal/hlo.Computation.CollectivePermuteStart": "builder for a program already in async form, as tests write one: MakeAsync's starts share their permute's Attrs through AddBuilt instead",

	"internal/obs.Attribution.ExposedFraction": "HiddenFraction's complement; the attribution tests state their expectations in it",
	"internal/obs.Registry.SetEnabled":         "test hook: shipped runs always record; tests turn recording off to measure its overhead and to show a plan's key does not read it",
	"internal/partition.Sharding.IsReplicated": "states the propagation tests' expectation; one line over the sharding's own fields",
	"internal/partition.ShardTensor":           "UnshardTensor's counterpart, and the oracle of train's feed test: Args draws each shard in place, and must equal the full tensor cut by this",
	"internal/partition.UnshardTensor":         "ShardTensor's inverse: the reference the partition tests reassemble per-device results with",
	"internal/partition.addShapes":             "UnshardTensor's helper",
	"internal/runtime.fabric.mailboxSizes":     "test hook: the leak check that every mailbox is empty after a run, failed or not",
	"internal/sim.PoisonReleased":              "test hook: the interpreter's use-after-release canary; the runtime's poisoned-arena tests turn it on beside the runtime's own, which an export_test.go hook in sim cannot reach",
	"internal/sim.InterpretAll":                "the interpreter keeping every top-level value alive: the tests that read interior values (a loss, a gradient, a rewritten copy) and the reference the release canary compares against",

	"internal/tensor.ReferenceEinsum":        "the scalar reference einsum every kernel configuration is compared against bitwise",
	"internal/tensor.EinsumAddInto":          "EinsumAddIntoSplitK at the bare-call default, as Einsum is to EinsumSplitK; the kernel tests call it",
	"internal/tensor.EinsumSpec.BatchLabels": "part of the parsed spec's classification (batch / contracting / free) the einsum tests pin",
	"internal/tensor.Iota":                   "test fixture: a tensor whose every element is distinguishable",
	"internal/tensor.Scale":                  "test fixture: expected values of scaled sums",
	"internal/tensor.Concat":                 "value form of ConcatInto (nil destination): tests build expected values with it",
	"internal/tensor.Slice":                  "value form of SliceInto, as Concat",
	"internal/tensor.DynamicSlice":           "value form of DynamicSliceInto, as Concat",
	"internal/tensor.DynamicUpdateSlice":     "value form of DynamicUpdateSliceInto, as Concat",
	"internal/tensor.Pad":                    "value form of PadInto, as Concat",
	"internal/tensor.Reshape":                "value form of ReshapeInto, as Concat",
	"internal/tensor.Transpose":              "value form of TransposeInto, as Concat",

	"internal/topology.NewTorus3D":          "the 3D torus of the paper's TPU pods; the parked 2D/3D-mesh item's surface, exercised by topology_test.go",
	"internal/topology.Mesh.AxisByName":     "mesh geometry query, as NewTorus3D",
	"internal/topology.Mesh.AxisStride":     "mesh geometry query, as NewTorus3D",
	"internal/topology.Mesh.HopDistance":    "mesh geometry query, as NewTorus3D",
	"internal/topology.Mesh.LinksPerDevice": "mesh geometry query, as NewTorus3D",
	"internal/topology.Mesh.Neighbor":       "mesh geometry query, as NewTorus3D",
}

// implicitMethods are called through standard-library interfaces, where
// no selector in this module names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, // fmt, errors
	"Len": true, "Less": true, "Swap": true, // sort, container/heap
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"MarshalText": true, "UnmarshalText": true, // encoding/json, via encoding.Text(Un)Marshaler
}

// decl is one top-level declaration of a non-test file: a function, a
// method, a type, a var, or a whole const block (an enum's members are
// not judged one by one).
type decl struct {
	id      string // dir.Name, or dir.Recv.Name for a method
	dir     string
	method  string // its name, for a method
	node    ast.Node
	imports map[string]string // local name -> module-relative dir
}

// TestNoTestOnlyCode is the dead-weight audit: every non-test
// declaration under internal/ must be reachable from what ships —
// cmd/overlap, package overlap, bench/ and examples/ — through non-test
// code. Reachability is by name over the syntax trees (go/ast, no type
// information): pkg.Name reaches Name in the imported package, a bare
// identifier reaches the package's own declaration of that name, and
// x.Name reaches every method called Name. That over-approximates, so
// what it flags only _test.go files (or nothing) can reach.
func TestNoTestOnlyCode(t *testing.T) {
	fset := token.NewFileSet()
	var decls []*decl
	byID := map[string][]*decl{}    // a const block registers under each member
	methods := map[string][]*decl{} // by method name
	add := func(d *decl, ids ...string) {
		decls = append(decls, d)
		for _, id := range ids {
			byID[id] = append(byID[id], d)
		}
		if d.method != "" {
			methods[d.method] = append(methods[d.method], d)
		}
	}

	var roots []*decl
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{}
		for _, im := range file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(p, "overlap")
			if !ok || (rel != "" && rel[0] != '/') {
				continue
			}
			target := strings.TrimPrefix(rel, "/")
			if target == "" {
				target = "."
			}
			name := filepath.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = target
		}
		isRoot := file.Name.Name == "main" || dir == "." || dir == "bench" || strings.HasPrefix(dir, "examples/")
		before := len(decls)
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				nd := &decl{dir: dir, node: d, imports: imports}
				if d.Recv != nil && len(d.Recv.List) == 1 {
					nd.method = d.Name.Name
					nd.id = dir + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				} else {
					nd.id = dir + "." + d.Name.Name
				}
				add(nd, nd.id)
				if d.Name.Name == "init" && d.Recv == nil {
					roots = append(roots, nd)
				}
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				if d.Tok == token.CONST {
					nd := &decl{dir: dir, node: d, imports: imports}
					var ids []string
					for _, s := range d.Specs {
						for _, n := range s.(*ast.ValueSpec).Names {
							ids = append(ids, dir+"."+n.Name)
						}
					}
					nd.id = ids[0]
					add(nd, ids...)
					continue
				}
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(&decl{id: dir + "." + s.Name.Name, dir: dir, node: s, imports: imports}, dir+"."+s.Name.Name)
					case *ast.ValueSpec:
						nd := &decl{id: dir + "." + s.Names[0].Name, dir: dir, node: s, imports: imports}
						var ids []string
						for _, n := range s.Names {
							ids = append(ids, dir+"."+n.Name)
						}
						add(nd, ids...)
						if s.Names[0].Name == "_" {
							roots = append(roots, nd)
						}
					}
				}
			}
		}
		if isRoot {
			roots = append(roots, decls[before:]...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := map[*decl]bool{}
	var work []*decl
	reach := func(ds []*decl) {
		for _, d := range ds {
			if !reached[d] {
				reached[d] = true
				work = append(work, d)
			}
		}
	}
	reach(roots)
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if target, ok := d.imports[x.Name]; ok {
						reach(byID[target+"."+n.Sel.Name])
						return false
					}
				}
				reach(methods[n.Sel.Name])
			case *ast.Ident:
				reach(byID[d.dir+"."+n.Name])
			}
			return true
		})
		// A type's methods that satisfy a standard-library interface are
		// called without being named.
		if ts, ok := d.node.(*ast.TypeSpec); ok {
			for name := range implicitMethods {
				reach(byID[d.dir+"."+ts.Name.Name+"."+name])
			}
		}
	}

	vouches := map[string]bool{}
	for _, d := range decls {
		if !strings.HasPrefix(d.dir, "internal/") || reached[d] {
			continue
		}
		file := filepath.ToSlash(fset.Position(d.node.Pos()).Filename)
		switch {
		case testOnly[d.id] != "":
			vouches[d.id] = true
		case testOnly[file] != "":
			vouches[file] = true
		case testOnly[d.dir] != "":
			vouches[d.dir] = true
		default:
			t.Errorf("%s (%s) is reached by no shipped code: delete it, move it into the _test.go file that uses it, or vouch for it in testOnly",
				d.id, fset.Position(d.node.Pos()))
		}
	}
	for id := range testOnly {
		if !vouches[id] {
			t.Errorf("testOnly vouches for %s, which shipped code reaches or which is gone: drop the entry", id)
		}
	}
}

// recvName returns the receiver's type name, pointer and type
// parameters stripped.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestDocsNameDeclarations keeps the prose describing code that exists:
// every backticked pkg.Name or pkg.Type.Member (also written
// (*pkg.Type).Member or pkg.(*Type).Member) in DESIGN.md, README.md and
// EXPERIMENTS.md whose pkg is one of the module's package names must
// name a declaration in that package — a top-level name, or a method or
// field of the type, promoted ones included — and every backticked
// *.go path must name a file, from the repository root, from internal/,
// or by base name. A selector the module cannot resolve is exempt only
// where a standard-library package of that name declares it (runtime).
func TestDocsNameDeclarations(t *testing.T) {
	type typeInfo struct {
		members  map[string]bool
		embedded []string // "pkg.Type" of each embedded field
	}
	fset := token.NewFileSet()
	top := map[string]map[string]bool{}        // package name → top-level names
	types := map[string]map[string]*typeInfo{} // package name → type → members
	files := map[string]bool{}                 // every .go path and base name
	typeOf := func(pkg, name string) *typeInfo {
		if types[pkg] == nil {
			types[pkg] = map[string]*typeInfo{}
		}
		if types[pkg][name] == nil {
			types[pkg][name] = &typeInfo{members: map[string]bool{}}
		}
		return types[pkg][name]
	}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files[filepath.ToSlash(path)], files[e.Name()] = true, true
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := file.Name.Name
		if top[pkg] == nil {
			top[pkg] = map[string]bool{}
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && len(d.Recv.List) == 1 {
					typeOf(pkg, recvName(d.Recv.List[0].Type)).members[d.Name.Name] = true
				} else {
					top[pkg][d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							top[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						top[pkg][s.Name.Name] = true
						ti := typeOf(pkg, s.Name.Name)
						var fields []*ast.Field
						switch x := s.Type.(type) {
						case *ast.StructType:
							fields = x.Fields.List
						case *ast.InterfaceType:
							fields = x.Methods.List
						}
						for _, f := range fields {
							for _, n := range f.Names {
								ti.members[n.Name] = true
							}
							if len(f.Names) == 0 {
								switch x := f.Type.(type) {
								case *ast.StarExpr:
									f.Type = x.X
								}
								switch x := f.Type.(type) {
								case *ast.Ident:
									ti.members[x.Name] = true
									ti.embedded = append(ti.embedded, pkg+"."+x.Name)
								case *ast.SelectorExpr:
									ti.members[x.Sel.Name] = true
									ti.embedded = append(ti.embedded, x.X.(*ast.Ident).Name+"."+x.Sel.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var hasMember func(pkg, typ, member string, depth int) bool
	hasMember = func(pkg, typ, member string, depth int) bool {
		ti := types[pkg][typ]
		if ti == nil || depth > 4 {
			return false
		}
		if ti.members[member] {
			return true
		}
		for _, e := range ti.embedded {
			p, ty, _ := strings.Cut(e, ".")
			if hasMember(p, ty, member, depth+1) {
				return true
			}
		}
		return false
	}
	stdlib := map[string]map[string]bool{}
	inStdlib := func(pkg, name string) bool {
		if stdlib[pkg] == nil {
			stdlib[pkg] = map[string]bool{}
			dir := filepath.Join(goruntime.GOROOT(), "src", pkg)
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
					continue
				}
				f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
				if err != nil {
					continue
				}
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						stdlib[pkg][d.Name.Name] = true
					case *ast.GenDecl:
						for _, s := range d.Specs {
							switch s := s.(type) {
							case *ast.ValueSpec:
								for _, n := range s.Names {
									stdlib[pkg][n.Name] = true
								}
							case *ast.TypeSpec:
								stdlib[pkg][s.Name.Name] = true
							}
						}
					}
				}
			}
		}
		return stdlib[pkg][name]
	}

	span := regexp.MustCompile("`([^`\n]+)`")
	selector := regexp.MustCompile(`(?:\(\*)?\b([a-z]\w*)\.(?:\(\*)?([A-Z]\w*)\)?(?:\.([A-Za-z]\w*))?`)
	goPath := regexp.MustCompile(`[\w./-]+\.go\b`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range span.FindAllStringSubmatch(line, -1) {
				for _, s := range selector.FindAllStringSubmatch(m[1], -1) {
					pkg, name, member := s[1], s[2], s[3]
					if top[pkg] == nil || pkg == "main" {
						continue // a variable, or a package the module does not have
					}
					ok := top[pkg][name] && (member == "" || hasMember(pkg, name, member, 0))
					if !ok && !inStdlib(pkg, name) {
						t.Errorf("%s:%d: `%s` names no declaration in package %s", doc, i+1, s[0], pkg)
					}
				}
				for _, p := range goPath.FindAllString(m[1], -1) {
					if !files[p] && !files["internal/"+p] && (strings.Contains(p, "/") || !files[filepath.Base(p)]) {
						t.Errorf("%s:%d: `%s` is no file in the module", doc, i+1, p)
					}
				}
			}
		}
	}
}
