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
// API kept alive only by its own tests is surface nobody runs. A method
// that makes its type satisfy a named interface (declared in the
// module, in a package the module imports, or the universe error) is
// exempt; one that satisfies only an anonymous interface, such as the
// Unwrap errors.Is looks for, needs a //hanccr:allow with its reason.
//
// The source importer type-checks an imported package apart from the
// copy the runner loaded, so one function can be several types.Object
// values. Declarations and references are therefore matched by package
// path, receiver type name and name, and interface satisfaction by
// method names and signature strings.
type deadapi struct{}

func init() { Register(deadapi{}) }

func (deadapi) Name() string { return "deadapi" }
func (deadapi) Doc() string {
	return "exported internal/ function or method no non-test file references"
}

// Check does nothing per package: a reference can sit in any package.
func (deadapi) Check(*Package, func(token.Pos, string, ...any)) {}

func (deadapi) CheckModule(pkgs []*Package, report func(pos token.Pos, format string, args ...any)) {
	used := make(map[string]bool)
	for _, p := range pkgs {
		var decls []*ast.FuncDecl
		eachFuncDecl(p, func(fd *ast.FuncDecl) { decls = append(decls, fd) })
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			key := funcKey(fn)
			if fn.Pkg().Path() == p.Path {
				if fd := enclosingDecl(decls, id.Pos()); fd != nil {
					if decl, ok := p.Info.Defs[fd.Name].(*types.Func); ok && funcKey(decl) == key {
						continue // recursion keeps nothing alive
					}
				}
			}
			used[key] = true
		}
	}
	ifaces := moduleInterfaces(pkgs)
	for _, p := range pkgs {
		if !p.ForceScope && !strings.Contains(p.Path+"/", "/internal/") {
			continue
		}
		eachFuncDecl(p, func(fd *ast.FuncDecl) {
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || !fd.Name.IsExported() || used[funcKey(fn)] {
				return
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && satisfiesInterface(recv.Type(), fn.Name(), ifaces) {
				return
			}
			report(fd.Name.Pos(), "%s has no non-test reference in the module; delete it, or move a test's reference model into a _test.go file", displayName(fn))
		})
	}
}

// funcKey names a function across type-checked copies of its package:
// "path.Name" or "path.Recv.Name".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

func displayName(fn *types.Func) string {
	key := funcKey(fn)
	return key[strings.LastIndex(fn.Pkg().Path(), "/")+1:]
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
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
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
	mset := types.NewMethodSet(types.NewPointer(n))
	for _, it := range ifaces {
		if implementsByName(mset, it, name) {
			return true
		}
	}
	return false
}

// implementsByName reports whether mset covers every method of it,
// one of them called name. Signatures match when identical or, for
// types from different copies of a package, when their strings do.
func implementsByName(mset *types.MethodSet, it *types.Interface, name string) bool {
	has := false
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if m.Name() == name {
			has = true
		}
		sel := mset.Lookup(m.Pkg(), m.Name())
		if sel == nil {
			return false
		}
		if got := sel.Obj().Type(); !types.Identical(got, m.Type()) && sigString(got) != sigString(m.Type()) {
			return false
		}
	}
	return has
}

// sigString renders a signature's parameter and result types without
// names or receiver.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	tuple := func(tup *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	tuple(sig.Results())
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
