package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// discarderr flags `_ = expr` assignments and bare statements that
// drop the error of a write-path call: Write/WriteString/Flush/Sync on
// anything but an in-memory buffer, Encode, log-style Record,
// io.Copy and friends, and Close on a value that can Write (a writable
// file's Close is the fsync-adjacent last chance to see the failure).
// This is the PR 7 bug class: `_ = c.slog.Record(req)` silently lost
// every miss-log append error.
//
// A direct `defer f.Close()` statement is exempt — that is idiomatic
// cleanup of read paths — but a bare Close inside a deferred closure
// is not, because those closures are exactly where write-path cleanup
// hides.
type discarderr struct{}

func init() { Register(discarderr{}) }

func (discarderr) Name() string { return "discarderr" }
func (discarderr) Doc() string {
	return "error from a write-path call (Write/Record/Encode/Close-on-writable/io.Copy) discarded"
}

func (discarderr) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.DeferStmt:
				// defer x.Close() directly is idiomatic; anything the
				// deferred closure *body* does is still inspected
				// because Inspect descends into the FuncLit.
				if _, ok := ast.Unparen(st.Call.Fun).(*ast.SelectorExpr); ok {
					return false
				}
			case *ast.AssignStmt:
				if st.Tok != token.ASSIGN || len(st.Rhs) != 1 || !allBlank(st.Lhs) {
					return true
				}
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
					if why := writePathCallee(p.Info, call); why != "" {
						report(st.Pos(), "error from %s discarded; write-path failures must be logged or returned", why)
					}
				}
				return true
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if why := writePathCallee(p.Info, call); why != "" {
						report(st.Pos(), "error from %s dropped by a bare call; write-path failures must be logged or returned", why)
					}
				}
				return true
			}
			return true
		})
	}
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// writePathCallee classifies a call as a write path whose error must
// not be dropped; it returns a human-readable callee description, or
// "" for calls that are fine to discard.
func writePathCallee(info *types.Info, call *ast.CallExpr) string {
	obj := calleeOf(info, call)
	if obj == nil || !returnsError(obj) {
		return ""
	}
	name := obj.Name()
	recv := methodRecv(info, call)
	if recv == nil {
		// Package-level write helpers.
		if calleePkg(obj) == "io" {
			switch name {
			case "Copy", "CopyN", "CopyBuffer", "WriteString":
				return "io." + name
			}
		}
		return ""
	}
	// In-memory buffers and hash.Hash document that writes cannot
	// fail (the key-preimage hashing in scenario.go relies on that).
	if n := namedOf(recv); n != nil && n.Obj().Pkg() != nil {
		switch n.Obj().Pkg().Path() {
		case "bytes", "strings":
			return ""
		}
	}
	if typeIsFrom(recv, "hash", "Hash") {
		return ""
	}
	desc := types.TypeString(recv, types.RelativeTo(nil)) + "." + name
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Flush", "Sync", "Record", "Encode":
		return desc
	case "Close":
		if hasMethod(recv, "Write") {
			return desc + " (closes a writable stream)"
		}
	}
	return ""
}
