package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// lintBuild is the binary built once per test binary, in a temp dir
// that TestMain removes.
var lintBuild struct {
	once      sync.Once
	dir       string
	bin, root string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if lintBuild.dir != "" {
		os.RemoveAll(lintBuild.dir) //hanccr:allow discarderr best-effort removal of the build dir; the exit code is the tests'
	}
	os.Exit(code)
}

// buildLint compiles the binary once per test binary into a temp dir
// and returns it with the module root.
func buildLint(t *testing.T) (bin, root string) {
	t.Helper()
	lintBuild.once.Do(func() {
		b := &lintBuild
		if b.root, b.err = filepath.Abs(filepath.Join("..", "..")); b.err != nil {
			return
		}
		if b.dir, b.err = os.MkdirTemp("", "hanccr-lint-test-"); b.err != nil {
			return
		}
		b.bin = filepath.Join(b.dir, "hanccr-lint")
		cmd := exec.Command("go", "build", "-o", b.bin, "./cmd/hanccr-lint")
		cmd.Dir = b.root
		if out, err := cmd.CombinedOutput(); err != nil {
			b.err = fmt.Errorf("build: %v\n%s", err, out)
		}
	})
	if lintBuild.err != nil {
		t.Fatal(lintBuild.err)
	}
	return lintBuild.bin, lintBuild.root
}

// TestLintGateExitCodes is the guardrail the whole PR rests on: the
// binary exits 0 on HEAD (the repo really is clean) and exits 1 with
// the expected diagnostics once the deliberately-broken fixture is
// compiled in via -tags lintfixture. A linter that cannot fail would
// be indistinguishable from a clean repo.
func TestLintGateExitCodes(t *testing.T) {
	bin, root := buildLint(t)

	out, err := exec.Command(bin, "-dir", root).CombinedOutput()
	if err != nil {
		t.Fatalf("clean HEAD: exit error %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 finding(s)") {
		t.Fatalf("clean HEAD summary missing:\n%s", out)
	}

	out, err = exec.Command(bin, "-dir", root, "-tags", "lintfixture").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("broken fixture: err = %v (want exit 1)\n%s", err, out)
	}
	text := string(out)
	for _, wantFrag := range []string{
		"internal/lint/brokenfixture/broken.go",
		"[discarderr]",
		"[ctxflow]",
		"[deadapi]",
	} {
		if !strings.Contains(text, wantFrag) {
			t.Errorf("broken-fixture output lacks %q:\n%s", wantFrag, text)
		}
	}
}

// TestLintJSONReport pins the machine-readable shape CI archives: a
// findings array (suppressed entries carried with their reasons) plus
// totals, valid JSON even when clean.
func TestLintJSONReport(t *testing.T) {
	bin, root := buildLint(t)
	out, err := exec.Command(bin, "-dir", root, "-json").Output()
	if err != nil {
		t.Fatalf("json run: %v", err)
	}
	var report struct {
		Findings []struct {
			Check      string `json:"check"`
			Pos        string `json:"pos"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
			Reason     string `json:"reason"`
		} `json:"findings"`
		Total      int `json:"total"`
		Suppressed int `json:"suppressed"`
	}
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out)
	}
	if report.Total != 0 {
		t.Fatalf("HEAD has %d unsuppressed findings in the JSON report", report.Total)
	}
	if report.Suppressed == 0 || len(report.Findings) != report.Suppressed {
		t.Fatalf("suppressed accounting off: %d findings vs suppressed=%d", len(report.Findings), report.Suppressed)
	}
	for _, f := range report.Findings {
		if !f.Suppressed || f.Reason == "" || f.Check == "" || f.Pos == "" {
			t.Fatalf("malformed suppressed finding in report: %+v", f)
		}
	}
}

// TestLintJSONGate pins the one-run CI step: a -json run over the
// broken fixture exits 1, its stdout is still the bare JSON report, and
// its stderr names each unsuppressed finding and the summary.
func TestLintJSONGate(t *testing.T) {
	bin, root := buildLint(t)
	cmd := exec.Command(bin, "-dir", root, "-tags", "lintfixture", "-json")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("json run over the broken fixture: err = %v (want exit 1)\n%s", err, stderr.String())
	}
	var report struct {
		Findings []struct {
			Check      string `json:"check"`
			Pos        string `json:"pos"`
			Suppressed bool   `json:"suppressed"`
		} `json:"findings"`
		Total int `json:"total"`
	}
	if err := json.Unmarshal(out, &report); err != nil {
		t.Fatalf("stdout is not the JSON report: %v\n%s", err, out)
	}
	if report.Total == 0 {
		t.Fatal("report counts no unsuppressed finding")
	}
	for _, f := range report.Findings {
		if !f.Suppressed && !strings.Contains(stderr.String(), f.Pos+": ["+f.Check+"]") {
			t.Errorf("stderr does not name finding %s [%s]:\n%s", f.Pos, f.Check, stderr.String())
		}
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr lacks the summary line:\n%s", stderr.String())
	}
}

// TestLintChecksFilter pins -checks: a subset run only applies the
// named checkers.
func TestLintChecksFilter(t *testing.T) {
	bin, root := buildLint(t)
	out, err := exec.Command(bin, "-dir", root, "-tags", "lintfixture", "-checks", "ctxflow").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("filtered run: err = %v (want exit 1)\n%s", err, out)
	}
	if strings.Contains(string(out), "[discarderr]") {
		t.Fatalf("-checks ctxflow still ran discarderr:\n%s", out)
	}
	if !strings.Contains(string(out), "[ctxflow]") {
		t.Fatalf("-checks ctxflow reported nothing:\n%s", out)
	}
}
