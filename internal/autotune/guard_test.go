package autotune

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnePipelineOneStage1 keeps stage 1 what it is, by reading this
// package's non-test source:
//
//   - core.Apply is the stage table run in order and the search walks
//     the same table through its memo, so the one core.Apply call
//     here is ApplyBest's, for a caller that wants the winning knobs on
//     its own graph. A plan is made from the program stage 2 executed,
//     never by applying the winner again; that rebuild, and the
//     per-candidate Clone → Apply → Format → Simulate loop, survive only
//     as oracles in plan_test.go and search_test.go;
//   - search.go keys programs by TextDigest and never builds their text;
//   - search.go clones a program where a stage is about to rewrite it
//     into a new child (child), where one leaves the tree (materialise)
//     and to un-stamp a stamped input (newSearch) — nowhere else: not
//     once per scheduler (an order node is an order, not a copy), and
//     not where On marks a stage the identity on its input program or
//     drops a knob that would make a second child (those hand the
//     parent on, or find the first child in the memo). Building the
//     tree on workers adds no Clone: a worker clones only nodes of the
//     subtree it owns;
//   - search.go starts goroutines in one place, the worker loop (each),
//     which runs the subtrees grow hands out and the groups of nodes
//     stage1 simulates; nothing else in the package starts one.
func TestOnePipelineOneStage1(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	workerLoops := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					if at := fset.Position(g.Pos()); name != "search.go" || fn.Name.Name != "each" {
						t.Errorf("%s: %s starts a goroutine: stage 1's one worker loop is search.go's each", at, fn.Name.Name)
					} else {
						workerLoops++
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				at := fset.Position(call.Pos())
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" && sel.Sel.Name == "Apply" && fn.Name.Name != "ApplyBest" {
					t.Errorf("%s: %s runs the whole pipeline: only ApplyBest may; stage 1 uses the search tree", at, fn.Name.Name)
				}
				if name != "search.go" {
					return true
				}
				switch sel.Sel.Name {
				case "Format":
					t.Errorf("%s: stage 1 builds a program's text: key it by TextDigest", at)
				case "Clone":
					switch fn.Name.Name {
					case "newSearch", "child", "materialise":
					default:
						t.Errorf("%s: %s clones a program: an order node holds an order, and every other node is cloned in child", at, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if workerLoops != 1 {
		t.Errorf("search.go's each starts goroutines in %d places, want 1", workerLoops)
	}
}
