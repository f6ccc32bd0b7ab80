package lint

import (
	"go/ast"
	"go/types"
)

// calleeOf resolves the object a call expression invokes: a package
// function, a method, or nil for indirect calls through variables,
// conversions and builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // qualified identifier pkg.Func
	}
	return nil
}

// calleePkg is the import path of the package defining the callee, or
// "" when that cannot be resolved (builtins, func-typed variables).
func calleePkg(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// methodRecv returns the receiver type of a method call, nil for
// plain function calls.
func methodRecv(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	return s.Recv()
}

// hasMethod reports whether t (or *t) has a method with the given
// name, exported lookup only.
func hasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	f, ok := obj.(*types.Func)
	return ok && f != nil
}

// namedOf unwraps pointers and aliases down to the named type, nil if
// t is unnamed.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// typeIsFrom reports whether t's defining package import path is pkg
// and its type name is name (pointers unwrapped).
func typeIsFrom(t types.Type, pkg, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkg && n.Obj().Name() == name
}

// returnsError reports whether the callee's results include error.
func returnsError(obj types.Object) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// eachFuncDecl visits every function declaration with a body in the
// package, in source order; literals are found by walking the bodies.
func eachFuncDecl(p *Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
