package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package handed to the checkers.
type Package struct {
	// Path is the import path ("repro", "repro/internal/dist", ...).
	// Scoped checkers (mapiter, walltime) key off it.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors are go/types problems; analysis continues on a
	// partial Info, and the runner surfaces them as findings.
	TypeErrors []error
	// ForceScope makes every scoped checker treat this package as
	// in-scope; the fixture harness sets it so testdata exercises
	// mapiter/walltime without mimicking real import paths.
	ForceScope bool
}

// loadModule discovers, parses and type-checks every package under
// root (the directory holding go.mod). Test files, testdata, vendor
// and hidden directories are skipped; tags extends the build-tag set
// so gated files (e.g. the lintfixture corpus) can be analyzed.
func loadModule(root string, tags []string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		p, err := parsePackage(fset, dir, path, tags)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	if err := typeCheck(root, fset, pkgs); err != nil {
		return nil, err
	}
	return pkgs, nil
}

// parsePackage parses the build-selected non-test files of one
// directory. Returns nil if no file survives the build constraints
// (e.g. a fixture gated behind an absent tag).
func parsePackage(fset *token.FileSet, dir, path string, tags []string) (*Package, error) {
	ctx := build.Default
	ctx.CgoEnabled = false
	ctx.BuildTags = append(append([]string{}, ctx.BuildTags...), tags...)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := ctx.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("lint: match %s: %w", filepath.Join(dir, name), err)
		}
		if ok {
			names = append(names, filepath.Join(dir, name))
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	p := &Package{Path: path, Dir: dir, Fset: fset}
	for _, fn := range names {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		p.Files = append(p.Files, f)
	}
	return p, nil
}

// loader type-checks parsed packages, each exactly once. An import of
// one of them resolves to its own checked *types.Package, checked on
// demand; any other import is read from compiler export data.
type loader struct {
	pkgs map[string]*Package
	gc   types.Importer
}

// typeCheck type-checks pkgs, which share fset. The export data of
// every other package they import comes from one go list call run in
// dir; a path go list cannot build has none, and importing it is a
// type error in the importing package.
func typeCheck(dir string, fset *token.FileSet, pkgs []*Package) error {
	l := &loader{pkgs: make(map[string]*Package, len(pkgs))}
	for _, p := range pkgs {
		l.pkgs[p.Path] = p
	}
	var external []string
	seen := map[string]bool{"unsafe": true, "C": true}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value) // the parser only accepts a string literal here
				if l.pkgs[path] == nil && !seen[path] {
					seen[path] = true
					external = append(external, path)
				}
			}
		}
	}
	exports := make(map[string]string)
	if len(external) > 0 {
		cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, external...)...)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("lint: go list -export: %w", err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok {
				exports[path] = file
			}
		}
	}
	l.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	for _, p := range pkgs {
		l.check(p)
	}
	return nil
}

// Import resolves a parsed package to its own checked *types.Package
// and anything else through the export data.
func (l *loader) Import(path string) (*types.Package, error) {
	p := l.pkgs[path]
	if p == nil {
		return l.gc.Import(path)
	}
	l.check(p)
	if p.Pkg == nil {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	return p.Pkg, nil
}

// check type-checks p unless that has started already.
func (l *loader) check(p *Package) {
	if p.Info != nil {
		return
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	// Check reports errors through conf.Error and still returns a
	// usable (partial) package; checkers run on what type-checked.
	p.Pkg, _ = conf.Check(p.Path, p.Fset, p.Files, p.Info)
}

// packageDirs walks root collecting every directory that holds .go
// files, skipping hidden dirs, testdata and vendor.
func packageDirs(root string) ([]string, error) {
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// modulePath reads the module line out of go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}
