package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// mapiter flags `for range` over a map inside the deterministic
// packages (internal/dist, internal/sched, internal/ckpt,
// internal/probdag) and the façade's scenario.go key preimage. Go map
// order is randomized per iteration, so any result that folds map
// entries in visit order breaks the repo's bit-identity guarantees —
// the PR 9 near-miss class. The canonical escape is the
// collect-then-sort idiom, which the checker recognizes: a loop body
// that only appends keys to a slice later passed to sort.*/slices.Sort*
// in the same function is deterministic and reports nothing.
type mapiter struct{}

func init() { Register(mapiter{}) }

func (mapiter) Name() string { return "mapiter" }
func (mapiter) Doc() string {
	return "unordered map iteration in deterministic code (key preimage, planner, golden encoders)"
}

// mapiterScopePkgs are the import-path suffixes whose packages carry
// bit-identity guarantees.
var mapiterScopePkgs = []string{
	"internal/dist", "internal/sched", "internal/ckpt", "internal/probdag",
}

func mapiterInScope(p *Package, filename string) bool {
	if p.ForceScope {
		return true
	}
	for _, s := range mapiterScopePkgs {
		if strings.HasSuffix(p.Path, s) {
			return true
		}
	}
	// The façade package is in scope only for the key-preimage file.
	return !strings.Contains(p.Path, "/") && filepath.Base(filename) == "scenario.go"
}

func (mapiter) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	eachFuncDecl(p, func(fd *ast.FuncDecl) {
		if !mapiterInScope(p, p.Fset.Position(fd.Pos()).Filename) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if collectThenSort(p.Info, fd.Body, rng) {
				return true
			}
			report(rng.Pos(), "iteration over map %s is unordered in deterministic code; collect and sort the keys first",
				types.TypeString(t, types.RelativeTo(nil)))
			return true
		})
	})
}

// collectThenSort reports whether rng is the benign half of the
// collect-then-sort idiom: every statement in the loop body appends
// loop variables (or derived expressions) to some slice, and that
// slice is handed to a sort call later in the enclosing function.
func collectThenSort(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	var targets []ast.Expr
	for _, st := range rng.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			return false
		}
		if obj := info.Uses[id]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
				return false // shadowed append
			}
		}
		if exprKey(as.Lhs[0]) == "" || exprKey(as.Lhs[0]) != exprKey(call.Args[0]) {
			return false
		}
		targets = append(targets, as.Lhs[0])
	}
	if len(targets) == 0 {
		return false
	}
	for _, tgt := range targets {
		if !sortedLater(info, fnBody, rng, tgt) {
			return false
		}
	}
	return true
}

// sortedLater scans the enclosing function after the range loop for a
// sort.* or slices.Sort* call taking tgt as its first argument.
func sortedLater(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, tgt ast.Expr) bool {
	want := exprKey(tgt)
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rng.End() {
			return true
		}
		obj := calleeOf(info, call)
		if obj == nil {
			return true
		}
		pkg := calleePkg(obj)
		isSort := pkg == "sort" || (pkg == "slices" && strings.HasPrefix(obj.Name(), "Sort"))
		if isSort && len(call.Args) >= 1 && exprKey(call.Args[0]) == want {
			found = true
		}
		return true
	})
	return found
}

// exprKey renders an ident/selector chain ("out.vals") for structural
// comparison; "" for anything more exotic.
func exprKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprKey(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}
