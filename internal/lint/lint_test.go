package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureCases drives the corpus under testdata/src: each fixture
// file marks its expected unsuppressed findings with
//
//	// want "message substring"        (finding on this line)
//	// want-above "message substring"  (finding on the previous line)
//
// and proves the //hanccr:allow contract by containing at least
// minSuppressed suppressed findings. The checker name "" runs no
// checker at all — the directive fixture only exercises the
// malformed-suppression diagnostics every run emits.
var fixtureCases = []struct {
	check         string
	minSuppressed int
}{
	{"discarderr", 1},
	{"mapiter", 1},
	{"walltime", 2},
	{"ctxflow", 1},
	{"lockio", 1},
	{"flagdrift", 1},
	{"deadapi", 1},
	{"", 0}, // directive
}

var wantRe = regexp.MustCompile(`// (want|want-above) "([^"]+)"`)

func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		dir := tc.check
		if dir == "" {
			dir = "directive"
		}
		t.Run(dir, func(t *testing.T) {
			fixDir := filepath.Join("testdata", "src", dir)
			p, err := loadFixtureDir(fixDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.TypeErrors) > 0 {
				t.Fatalf("fixture does not type-check (findings would be meaningless): %v", p.TypeErrors)
			}
			var checkers []Checker
			if tc.check != "" {
				c, ok := registry[tc.check]
				if !ok {
					t.Fatalf("no registered checker %q", tc.check)
				}
				checkers = append(checkers, c)
			}
			diags := checkPackages([]*Package{p}, checkers, fixDir)

			want := parseWants(t, fixDir)
			suppressed := 0
			for _, d := range diags {
				if d.Suppressed {
					suppressed++
					if d.Reason == "" {
						t.Errorf("%s: suppressed without a reason", d)
					}
					continue
				}
				if !want.take(d) {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for _, w := range want.left() {
				t.Errorf("missing finding: line %d containing %q", w.line, w.substr)
			}
			if suppressed < tc.minSuppressed {
				t.Errorf("suppressed %d finding(s), fixture promises >= %d", suppressed, tc.minSuppressed)
			}
		})
	}
}

// loadFixtureDir parses and type-checks a single standalone directory
// (one fixture package, stdlib imports only) with scoped checkers
// forced on.
func loadFixtureDir(dir string) (*Package, error) {
	fset := token.NewFileSet()
	p, err := parsePackage(fset, dir, "fixture/"+filepath.Base(dir), nil)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	if err := typeCheck(dir, fset, []*Package{p}); err != nil {
		return nil, err
	}
	p.ForceScope = true
	return p, nil
}

type wantExpect struct {
	line   int
	substr string
	used   bool
}

type wantSet struct{ list []*wantExpect }

func (s *wantSet) take(d Diagnostic) bool {
	for _, w := range s.list {
		if !w.used && w.line == d.line && strings.Contains(d.Message, w.substr) {
			w.used = true
			return true
		}
	}
	return false
}

func (s *wantSet) left() []*wantExpect {
	var out []*wantExpect
	for _, w := range s.list {
		if !w.used {
			out = append(out, w)
		}
	}
	return out
}

func parseWants(t *testing.T, dir string) *wantSet {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	set := &wantSet{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(lineText)
			if m == nil {
				continue
			}
			line := i + 1
			if m[1] == "want-above" {
				line--
			}
			set.list = append(set.list, &wantExpect{line: line, substr: m[2]})
		}
	}
	if len(set.list) == 0 {
		t.Fatalf("fixture %s declares no // want expectations", dir)
	}
	return set
}

// TestRepoLintsClean is the self-test the CI gate rests on: the full
// checker suite over the real repository reports zero unsuppressed
// findings, and the in-place //hanccr:allow annotations actually
// engage (a suppressed count of zero would mean the directives
// stopped parsing, which is as bad as a finding).
func TestRepoLintsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		} else {
			bad = append(bad, d.String())
		}
	}
	if len(bad) > 0 {
		t.Fatalf("repo has %d unsuppressed finding(s):\n%s", len(bad), strings.Join(bad, "\n"))
	}
	if suppressed < 10 {
		t.Fatalf("only %d suppressed findings; the repo's //hanccr:allow annotations should yield more — did directive parsing break?", suppressed)
	}
	// Run's output is sorted by file then line: stable output is what
	// makes the CI JSON artifact diffable across runs.
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.file > b.file || (a.file == b.file && a.line > b.line) {
			t.Fatalf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

// TestRunRejectsUnknownCheck pins the -checks CLI contract: a typo'd
// check name is a setup error naming the valid ones, not an
// accidentally-empty (and therefore green) run.
func TestRunRejectsUnknownCheck(t *testing.T) {
	_, err := Run(Config{Dir: filepath.Join("..", ".."), Checks: []string{"mapitre"}})
	if err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Fatalf("err = %v, want unknown-check error", err)
	}
	for _, c := range Checkers() {
		if !strings.Contains(err.Error(), c.Name()) {
			t.Errorf("error %q does not list registered check %s", err, c.Name())
		}
	}
}
