package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockio flags blocking work performed while a sync.Mutex/RWMutex is
// held: os/net/net\/http/os\/exec calls, *os.File methods, io.Copy
// and interface Write/Flush/Encode calls. The sharded plan cache's
// whole latency story rests on critical sections that touch only the
// map and the LRU list — planning and I/O happen outside the lock
// (service.go's once-per-entry discipline). A disk read under a shard
// mutex serializes every hot hit behind one miss.
//
// The analysis is a straight-line walk, not a CFG: Lock()/RLock() adds
// the receiver to the held set, Unlock()/RUnlock() removes it, a
// deferred unlock holds to function end, and branch/loop bodies are
// scanned with a copy of the held set. Function literals are skipped —
// they run elsewhere. Intentional hold-across-I/O designs (the plan
// store's single-writer mutex) document themselves with a file-scoped
// allow.
type lockio struct{}

func init() { Register(lockio{}) }

func (lockio) Name() string { return "lockio" }
func (lockio) Doc() string {
	return "blocking planner/disk/network call while a mutex is held"
}

func (lockio) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	eachFuncDecl(p, func(fd *ast.FuncDecl) {
		w := &lockWalker{info: p.Info, report: report, held: map[string]bool{}}
		w.stmts(fd.Body.List)
	})
}

type lockWalker struct {
	info   *types.Info
	report func(pos token.Pos, format string, args ...any)
	held   map[string]bool
}

func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, st := range list {
		w.stmt(st)
	}
}

func (w *lockWalker) stmt(st ast.Stmt) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, locks := w.mutexOp(call); key != "" {
				if locks {
					w.held[key] = true
				} else {
					delete(w.held, key)
				}
				return
			}
		}
		w.scanCalls(s.X)
	case *ast.DeferStmt:
		// A deferred unlock keeps the mutex held for the rest of the
		// walk — exactly the window the checker must watch. The
		// deferred call's own arguments still evaluate now.
		if key, locks := w.mutexOp(s.Call); key != "" && !locks {
			return
		}
		for _, a := range s.Call.Args {
			w.scanCalls(a)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanCalls(e)
		}
		for _, e := range s.Lhs {
			w.scanCalls(e)
		}
	case *ast.DeclStmt, *ast.ReturnStmt, *ast.SendStmt, *ast.IncDecStmt:
		w.scanCalls(st)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.scanCalls(s.Cond)
		w.branch(s.Body.List)
		if s.Else != nil {
			w.branch([]ast.Stmt{s.Else})
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.scanCalls(s.Cond)
		}
		w.branch(s.Body.List)
	case *ast.RangeStmt:
		w.scanCalls(s.X)
		w.branch(s.Body.List)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				w.branch(cc.Body)
				return false
			}
			if cc, ok := n.(*ast.CommClause); ok {
				w.branch(cc.Body)
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			return true
		})
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// branch walks a conditional body against a copy of the held set, so
// an unlock inside one arm does not leak into the code after the
// branch.
func (w *lockWalker) branch(list []ast.Stmt) {
	saved := w.held
	w.held = make(map[string]bool, len(saved))
	for k := range saved {
		w.held[k] = true
	}
	w.stmts(list)
	w.held = saved
}

// scanCalls reports every blocking call inside an expression or
// simple statement, skipping function literal bodies (they execute
// elsewhere).
func (w *lockWalker) scanCalls(n ast.Node) {
	if n == nil || len(w.held) == 0 {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, _ := w.mutexOp(call); key != "" {
			return true
		}
		if desc := blockingCallee(w.info, call); desc != "" {
			w.report(call.Pos(), "%s called while holding %s; move blocking work outside the critical section", desc, anyHeld(w.held))
		}
		return true
	})
}

// mutexOp classifies a call as Lock/RLock (locks=true) or
// Unlock/RUnlock (locks=false) on a sync mutex, returning the
// receiver's structural key ("sh.mu") or "".
func (w *lockWalker) mutexOp(call *ast.CallExpr) (key string, locks bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", false
	}
	recv := methodRecv(w.info, call)
	if !typeIsFrom(recv, "sync", "Mutex") && !typeIsFrom(recv, "sync", "RWMutex") {
		return "", false
	}
	key = exprKey(sel.X)
	if key == "" {
		key = "mutex"
	}
	return key, name == "Lock" || name == "RLock" || name == "TryLock" || name == "TryRLock"
}

// blockingCallee describes a call that can block on planner, disk or
// network work, or "" when it is lock-safe.
func blockingCallee(info *types.Info, call *ast.CallExpr) string {
	obj := calleeOf(info, call)
	if obj == nil {
		return ""
	}
	name := obj.Name()
	recv := methodRecv(info, call)
	if recv == nil {
		switch calleePkg(obj) {
		case "os", "net", "net/http", "os/exec", "io/ioutil":
			return calleePkg(obj) + "." + name
		case "io":
			switch name {
			case "Copy", "CopyN", "CopyBuffer", "WriteString", "ReadAll":
				return "io." + name
			}
		}
		return ""
	}
	switch {
	case typeIsFrom(recv, "os", "File"):
		return "(*os.File)." + name
	case typeIsFrom(recv, "net/http", "Client"):
		return "(*http.Client)." + name
	case typeIsFrom(recv, "net", "Conn"):
		return "(net.Conn)." + name
	}
	if types.IsInterface(recv) {
		switch name {
		case "Write", "WriteString", "Read", "Flush", "Sync", "Encode", "Decode", "Record":
			return types.TypeString(recv, types.RelativeTo(nil)) + "." + name + " (interface call)"
		}
	}
	return ""
}

// anyHeld names one held mutex for the message (sorted would be
// overkill for a one-element common case; pick the lexicographically
// smallest for determinism).
func anyHeld(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
