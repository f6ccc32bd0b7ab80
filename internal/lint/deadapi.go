package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// deadapi flags an exported function or method declared in a non-test
// file under internal/ that no non-test file in the module references:
// API kept alive only by its own tests is surface nobody runs. A use of
// a generic function or of a method of a generic type counts for its
// declaration. A method that makes its type satisfy a named interface
// (declared in the module, in a package the module imports, or the
// universe error) is exempt; one that satisfies only an anonymous
// interface, such as the Unwrap errors.Is looks for, needs a
// //hanccr:allow with its reason.
type deadapi struct{}

func init() { Register(deadapi{}) }

func (deadapi) Name() string { return "deadapi" }
func (deadapi) Doc() string {
	return "exported internal/ function or method no non-test file references"
}

// Check does nothing per package: a reference can sit in any package.
func (deadapi) Check(*Package, func(token.Pos, string, ...any)) {}

func (deadapi) CheckModule(pkgs []*Package, report func(pos token.Pos, format string, args ...any)) {
	used := make(map[*types.Func]bool)
	for _, p := range pkgs {
		var decls []*ast.FuncDecl
		eachFuncDecl(p, func(fd *ast.FuncDecl) { decls = append(decls, fd) })
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := enclosingDecl(decls, id.Pos()); fd != nil && p.Info.Defs[fd.Name] == types.Object(fn) {
				continue // recursion keeps nothing alive
			}
			used[fn] = true
		}
	}
	ifaces := moduleInterfaces(pkgs)
	for _, p := range pkgs {
		if !p.ForceScope && !strings.Contains(p.Path+"/", "/internal/") {
			continue
		}
		eachFuncDecl(p, func(fd *ast.FuncDecl) {
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || !fd.Name.IsExported() || used[fn] {
				return
			}
			if recv := fn.Signature().Recv(); recv != nil && satisfiesInterface(recv.Type(), fn.Name(), ifaces) {
				return
			}
			report(fd.Name.Pos(), "%s has no non-test reference in the module; delete it, or move a test's reference model into a _test.go file", displayName(fn))
		})
	}
}

// displayName is "pkg.Name" or "pkg.Recv.Name", pkg being the last
// element of the import path.
func displayName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			name = n.Obj().Name() + "." + name
		}
	}
	path := fn.Pkg().Path()
	return path[strings.LastIndex(path, "/")+1:] + "." + name
}

// enclosingDecl returns the declaration in decls (in source order)
// whose extent holds pos, nil if none does.
func enclosingDecl(decls []*ast.FuncDecl, pos token.Pos) *ast.FuncDecl {
	i := sort.Search(len(decls), func(i int) bool { return decls[i].End() >= pos })
	if i < len(decls) && decls[i].Pos() <= pos {
		return decls[i]
	}
	return nil
}

// moduleInterfaces collects the universe error and every named
// interface type declared at package level in the loaded packages and
// in everything they import, transitively.
func moduleInterfaces(pkgs []*Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if tp == nil || seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Pkg)
	}
	return out
}

// satisfiesInterface reports whether recv's type (or a pointer to it)
// implements one of ifaces that has a method called name.
func satisfiesInterface(recv types.Type, name string, ifaces []*types.Interface) bool {
	n := namedOf(recv)
	if n == nil {
		return false
	}
	ptr := types.NewPointer(n)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}
