package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadModuleOnePackagePerPath pins the loader's contract: each
// module package is type-checked once, so every module import of a
// loaded package, and every module object its code uses, belongs to
// the very *types.Package the loader returned for that path. deadapi
// matches functions by identity and relies on it.
func TestLoadModuleOnePackagePerPath(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loadModule(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	inModule := func(path string) bool { return path == modPath || strings.HasPrefix(path, modPath+"/") }
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
		for _, imp := range p.Pkg.Imports() {
			if !inModule(imp.Path()) {
				continue
			}
			if q := byPath[imp.Path()]; q == nil || q.Pkg != imp {
				t.Errorf("%s imports a second copy of %s", p.Path, imp.Path())
			}
		}
		for id, obj := range p.Info.Uses {
			if obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
				continue
			}
			if q := byPath[obj.Pkg().Path()]; q == nil || q.Pkg != obj.Pkg() {
				t.Errorf("%s: %s refers to a second copy of %s", p.Fset.Position(id.Pos()), id.Name, obj.Pkg().Path())
			}
		}
	}
}

// TestLoadUnresolvableImportFails pins that an import the loader cannot
// resolve, inside the module or outside it, fails the run: as a setup
// error or as a typecheck finding, never as a clean report.
func TestLoadUnresolvableImportFails(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmpmod\n\ngo 1.24\n")
	write("a/a.go", "package a\n\nimport (\n\t\"nosuchstdpkg\"\n\t\"tmpmod/missing\"\n)\n\nvar _, _ = nosuchstdpkg.X, missing.Y\n")
	diags, err := Run(Config{Dir: dir})
	if err != nil {
		return
	}
	found := map[string]bool{}
	for _, d := range diags {
		if d.Check == "typecheck" && !d.Suppressed {
			for _, path := range []string{"nosuchstdpkg", "tmpmod/missing"} {
				if strings.Contains(d.Message, path) {
					found[path] = true
				}
			}
		}
	}
	if !found["nosuchstdpkg"] || !found["tmpmod/missing"] {
		t.Fatalf("unresolvable imports not reported: %v", diags)
	}
}
