package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
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
	imp := newSourceImporter(fset)
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
		p, err := loadPackage(fset, imp, dir, path, tags)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// newSourceImporter builds the stdlib source-mode importer. Cgo is
// disabled first so go/build selects the pure-Go variants of net,
// os/user etc. — source mode cannot run the cgo preprocessor.
func newSourceImporter(fset *token.FileSet) types.Importer {
	build.Default.CgoEnabled = false
	return importer.ForCompiler(fset, "source", nil)
}

// loadPackage parses the build-selected non-test files of one
// directory and type-checks them. Returns nil if no file survives the
// build constraints (e.g. a fixture gated behind an absent tag).
func loadPackage(fset *token.FileSet, imp types.Importer, dir, path string, tags []string) (*Package, error) {
	ctx := build.Default
	ctx.CgoEnabled = false
	ctx.BuildTags = append(append([]string{}, ctx.BuildTags...), tags...)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
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
		if !ok {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	for _, fn := range names {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	p := &Package{Path: path, Dir: dir, Fset: fset, Files: files}
	conf := types.Config{
		Importer: imp,
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
	p.Pkg, _ = conf.Check(path, fset, files, p.Info)
	return p, nil
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
