package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"overlap"
	"overlap/cmd/internal/cli"
)

// TestMain lets the test binary serve as the proc transport's worker:
// `run -transport proc` re-executes the running binary.
func TestMain(m *testing.M) {
	overlap.MaybeTransportWorker()
	os.Exit(m.Run())
}

// tiny sizes every case: the smallest miniature, near-zero wire delays.
var tiny = []string{"-model", "GPT_32B", "-devices", "4", "-dim", "2", "-timescale", "1"}

func invoke(args ...string) (status int, stdout, stderr string) {
	var out, errw bytes.Buffer
	status = dispatch(args, &out, &errw)
	return status, out.String(), errw.String()
}

// mustContain fails unless the subcommand exited with wantStatus and
// every fragment appears in the named stream.
func mustContain(t *testing.T, args []string, wantStatus int, wantOut, wantErr []string) {
	t.Helper()
	status, stdout, stderr := invoke(args...)
	if status != wantStatus {
		t.Fatalf("overlap %s: status %d, want %d\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), status, wantStatus, stdout, stderr)
	}
	for _, want := range wantOut {
		if !strings.Contains(stdout, want) {
			t.Errorf("overlap %s: stdout lacks %q:\n%s", strings.Join(args, " "), want, stdout)
		}
	}
	for _, want := range wantErr {
		if !strings.Contains(stderr, want) {
			t.Errorf("overlap %s: stderr lacks %q:\n%s", strings.Join(args, " "), want, stderr)
		}
	}
}

// children lists the live child processes of this one.
func children(t *testing.T) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil || len(stats) == 0 {
		t.Skip("no /proc to scan for worker processes")
	}
	self := strconv.Itoa(os.Getpid())
	var pids []int
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited since the glob
		}
		// pid (comm) state ppid …; comm may itself hold spaces and parens.
		rest := string(data)
		rest = rest[strings.LastIndexByte(rest, ')')+1:]
		if fields := strings.Fields(rest); len(fields) > 1 && fields[1] == self {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			pids = append(pids, pid)
		}
	}
	return pids
}

// TestSubcommands drives every subcommand through dispatch — the same
// entry main uses — and pins the report lines and exit statuses the CI
// smokes grep for.
func TestSubcommands(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "plans")
	plan := filepath.Join(dir, "plan.json")
	with := func(sub string, extra ...string) []string {
		return append(append([]string{sub}, tiny...), extra...)
	}

	t.Run("run checked", func(t *testing.T) {
		mustContain(t, with("run", "-mode", "overlap", "-check"), 0, []string{"overlap   step", "[checked]"}, nil)
	})
	t.Run("run every mode with attribution", func(t *testing.T) {
		mustContain(t, with("run", "-check", "-attrib"), 0,
			[]string{"baseline  step", "rolled    step", "overlap   step", "overlap efficiency"}, nil)
	})
	t.Run("run on worker processes", func(t *testing.T) {
		mustContain(t, with("run", "-mode", "overlap", "-transport", "proc", "-check"), 0, []string{"[checked]"}, nil)
		if pids := children(t); len(pids) != 0 {
			t.Fatalf("worker processes survived the run: %v", pids)
		}
	})
	t.Run("run with an injected fault", func(t *testing.T) {
		mustContain(t, with("run", "-mode", "overlap", "-fault", "drop:link:0-1:0", "-fault-seed", "7", "-deadline", "2s"), 1,
			[]string{"injecting faults: drop:link:0-1:0 (seed 7)"},
			[]string{"overlap run: ", "(phase ", "[injected: drop:link:0-1:0]"})
	})
	t.Run("tune cold then warm", func(t *testing.T) {
		args := with("tune", "-topk", "1", "-cache", cache, "-plan-out", plan)
		mustContain(t, args, 0, []string{"cache: cold", "wrote compiled plan"}, nil)
		cold, err := os.ReadFile(plan)
		if err != nil {
			t.Fatal(err)
		}
		mustContain(t, args, 0, []string{"warm hit", "0 runtime executions"}, nil)
		// The warm run hands out the stored plan itself, timestamp and
		// all: -plan-out and the store hold one record, not two builds.
		warm, err := os.ReadFile(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, warm) {
			t.Errorf("-plan-out differs between the cold and the warm tune:\n%s\n%s", cold, warm)
		}
		stored, err := filepath.Glob(filepath.Join(cache, "*.json"))
		if err != nil || len(stored) != 1 {
			t.Fatalf("store holds %v (%v), want one plan file", stored, err)
		}
		if data, err := os.ReadFile(stored[0]); err != nil || !bytes.Equal(data, cold) {
			t.Errorf("the stored plan is not the -plan-out bytes (%v)", err)
		}
	})
	t.Run("run a tuned plan", func(t *testing.T) {
		mustContain(t, []string{"run", "-plan-in", plan, "-timescale", "1", "-check"}, 0, []string{"plan      step", "[checked]"}, nil)
	})
	t.Run("train", func(t *testing.T) {
		mustContain(t, []string{"train", "-timescale", "1", "-strategy", "ddp", "-steps", "3", "-check", "-attrib"}, 0,
			[]string{"[checked]", "overlap   loss decreased over 3 steps", "partially hidden", "overlap efficiency"}, nil)
	})
	t.Run("experiments", func(t *testing.T) {
		mustContain(t, []string{"experiments", "fig12"}, 0, []string{"Figure 12", "GPT_1T"}, nil)
		mustContain(t, []string{"experiments", "-json", "table1"}, 0, []string{`{"experiment":"table1","text":`}, nil)
	})
	t.Run("usage errors", func(t *testing.T) {
		mustContain(t, []string{"simulate"}, 2, nil, []string{`unknown subcommand "simulate"`, "usage: overlap <subcommand>"})
		mustContain(t, nil, 2, nil, []string{"usage: overlap <subcommand>"})
		mustContain(t, []string{"run", "-no-such-flag"}, 2, nil, []string{"flag provided but not defined", "Usage of overlap run"})
		mustContain(t, with("run", "-mode", "sideways"), 1, nil, []string{`unknown mode "sideways"`})
	})
}

// TestSharedFlagsDefinedOnce keeps the flag→options mapping single: a
// flag in the shared set is defined by cli's table and nowhere else
// under cmd/, so no command can grow its own -model or -timescale with
// a drifting default or meaning.
func TestSharedFlagsDefinedOnce(t *testing.T) {
	names := cli.Names()
	for i, name := range names {
		if slices.Contains(names[:i], name) {
			t.Errorf("cli defines -%s twice", name)
		}
	}
	definers := map[string]int{ // flag-defining method → index of its name argument
		"String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Float64": 0, "Bool": 0, "Duration": 0,
		"StringVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "Float64Var": 1, "BoolVar": 1, "DurationVar": 1,
		"Var": 1, "Func": 0, "BoolFunc": 0, "TextVar": 1,
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg, ok := definers[sel.Sel.Name]
			if !ok || arg >= len(call.Args) {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if name, _ := strconv.Unquote(lit.Value); slices.Contains(names, name) {
				t.Errorf("%s defines shared flag -%s itself: register it from cli", fset.Position(call.Pos()), name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
