// Package lint is the repo-invariant static analyzer behind
// cmd/hanccr-lint. It enforces, mechanically, the invariants the test
// suite can only spot-check: errors on write paths are never dropped
// (discarderr — the PR 7 bug class), map iteration in key/golden paths
// is sorted (mapiter — the bit-identity guarantee), planning code never
// reads the wall clock or the global rand (walltime), a received
// context.Context is the one that flows onward (ctxflow), cache mutexes
// are never held across planner/disk/network calls (lockio),
// scenario/serve knob flags live only in the Bind*Flags blocks
// (flagdrift — the drift of knob defaults between binaries), and every
// exported function or method under internal/ has a non-test caller
// (deadapi).
//
// The framework is stdlib-only: go/ast + go/parser for syntax, go/types
// for semantics. Each module package is type-checked once, and its
// imports from outside the module are read from compiler export data
// that one go list -export call locates. No x/tools.
//
// Findings are suppressed in place with
//
//	//hanccr:allow <check> <reason>
//
// which covers its own line and the next line, or
//
//	//hanccr:allow-file <check> <reason>
//
// which covers the whole file. A directive with a missing or unknown
// check name, or no reason, is itself a finding (check "directive"):
// an undocumented suppression is drift waiting to happen.
package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding. Pos is module-root-relative
// file:line:col so output is stable across checkouts.
type Diagnostic struct {
	Check      string `json:"check"`
	Pos        string `json:"pos"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`

	file string
	line int
	col  int
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Checker is one registered invariant. Check walks a single
// type-checked package and reports findings through report; the runner
// handles suppression, sorting and output.
type Checker interface {
	Name() string
	Doc() string
	Check(p *Package, report func(pos token.Pos, format string, args ...any))
}

// ModuleChecker is a Checker that also needs the whole module at once
// (deadapi: a reference may sit in any package). Run calls CheckModule
// once, after every package went through Check, with every loaded
// package; all of them share one FileSet.
type ModuleChecker interface {
	Checker
	CheckModule(pkgs []*Package, report func(pos token.Pos, format string, args ...any))
}

var registry = map[string]Checker{}

// Register adds a checker to the global registry; each checker file
// calls it from init. Duplicate names are programmer error.
func Register(c Checker) {
	if _, dup := registry[c.Name()]; dup {
		panic("lint: duplicate checker " + c.Name())
	}
	registry[c.Name()] = c
}

// Checkers returns the registered checkers sorted by name.
func Checkers() []Checker {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Checker, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Config selects what Run analyzes.
type Config struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Checks restricts the run to the named checkers; empty means all.
	Checks []string
	// Tags are extra build tags (e.g. "lintfixture") so gated files
	// can be pulled into the analysis.
	Tags []string
}

// Run loads every package under cfg.Dir and applies the selected
// checkers. It returns all diagnostics — suppressed ones included,
// marked — sorted by position. The error covers setup problems
// (unreadable module, unknown check name), not findings.
func Run(cfg Config) ([]Diagnostic, error) {
	checkers, err := selectCheckers(cfg.Checks)
	if err != nil {
		return nil, err
	}
	pkgs, err := loadModule(cfg.Dir, cfg.Tags)
	if err != nil {
		return nil, err
	}
	diags := checkPackages(pkgs, checkers, cfg.Dir)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// checkPackages applies the checkers to each package, then the module
// checkers to all of them, and resolves suppressions. Shared by Run and
// the fixture test harness.
func checkPackages(pkgs []*Package, checkers []Checker, root string) []Diagnostic {
	allows := allowSet{}
	var diags []Diagnostic
	for _, p := range pkgs {
		diags = append(diags, checkPackage(p, checkers, root, allows)...)
	}
	if len(pkgs) == 0 {
		return diags
	}
	fset := pkgs[0].Fset
	for _, c := range checkers {
		if mc, ok := c.(ModuleChecker); ok {
			mc.CheckModule(pkgs, reporter(fset, root, mc.Name(), allows, &diags))
		}
	}
	return diags
}

// checkPackage applies the checkers to one package, adding its
// suppression directives to allows.
func checkPackage(p *Package, checkers []Checker, root string, allows allowSet) []Diagnostic {
	diags := collectAllows(p, root, allows)
	for _, err := range p.TypeErrors {
		if te, ok := err.(types.Error); ok {
			diags = append(diags, makeDiag(p.Fset, root, "typecheck", te.Pos, te.Msg))
		} else {
			diags = append(diags, Diagnostic{Check: "typecheck", Pos: "-", Message: err.Error()})
		}
	}
	for _, c := range checkers {
		c.Check(p, reporter(p.Fset, root, c.Name(), allows, &diags))
	}
	return diags
}

// reporter is the report callback handed to a checker: it turns a
// finding into a Diagnostic, marks it suppressed when a directive
// covers it, and appends it to diags.
func reporter(fset *token.FileSet, root, check string, allows allowSet, diags *[]Diagnostic) func(token.Pos, string, ...any) {
	return func(pos token.Pos, format string, args ...any) {
		d := makeDiag(fset, root, check, pos, fmt.Sprintf(format, args...))
		if reason, ok := allows.match(check, d.file, d.line); ok {
			d.Suppressed = true
			d.Reason = reason
		}
		*diags = append(*diags, d)
	}
}

func makeDiag(fset *token.FileSet, root, check string, pos token.Pos, msg string) Diagnostic {
	p := fset.Position(pos)
	file := p.Filename
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	return Diagnostic{
		Check:   check,
		Pos:     fmt.Sprintf("%s:%d:%d", file, p.Line, p.Column),
		Message: msg,
		file:    file,
		line:    p.Line,
		col:     p.Column,
	}
}

func selectCheckers(names []string) ([]Checker, error) {
	if len(names) == 0 {
		return Checkers(), nil
	}
	out := make([]Checker, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		c, ok := registry[n]
		if !ok {
			var have []string
			for _, c := range Checkers() {
				have = append(have, c.Name())
			}
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", n, strings.Join(have, ", "))
		}
		out = append(out, c)
	}
	return out, nil
}
