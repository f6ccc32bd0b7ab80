// Command hanccr-lint runs the repo-invariant static analyzers of
// internal/lint over the module: determinism (mapiter, walltime),
// error discipline on write paths (discarderr), context plumbing
// (ctxflow), lock hygiene (lockio), flag-block ownership (flagdrift)
// and unused internal/ API (deadapi).
//
//	hanccr-lint                  # lint the module containing the cwd
//	hanccr-lint -json            # machine-readable report (CI artifact)
//	hanccr-lint -checks mapiter,walltime
//	hanccr-lint -tags lintfixture  # include build-tag-gated files
//
// Unsuppressed findings go to stdout, one per line, and a summary line
// to stderr. With -json, stdout carries only the JSON report and the
// findings and summary go to stderr, so one run both gates and writes
// the report. Exit status: 0 clean, 1 unsuppressed findings, 2 usage or
// load error. Suppressed findings (//hanccr:allow) are counted in the
// summary and carried in the JSON report but do not fail the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the full report (suppressed findings included) as JSON")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default all)")
	tags := flag.String("tags", "", "comma-separated extra build tags (e.g. lintfixture)")
	dir := flag.String("dir", "", "module root to lint (default: walk up from cwd to go.mod)")
	listChecks := flag.Bool("list", false, "list registered checks and exit")
	flag.Parse()

	if *listChecks {
		for _, c := range lint.Checkers() {
			fmt.Printf("%-11s %s\n", c.Name(), c.Doc())
		}
		return
	}

	root := *dir
	if root == "" {
		var err error
		if root, err = findModuleRoot(); err != nil {
			fatal(err)
		}
	}
	diags, err := lint.Run(lint.Config{
		Dir:    root,
		Checks: splitList(*checks),
		Tags:   splitList(*tags),
	})
	if err != nil {
		fatal(err)
	}

	unsuppressed, suppressed := 0, 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		} else {
			unsuppressed++
		}
	}

	if *jsonOut {
		report := struct {
			Findings   []lint.Diagnostic `json:"findings"`
			Total      int               `json:"total"`
			Suppressed int               `json:"suppressed"`
		}{diags, unsuppressed, suppressed}
		if report.Findings == nil {
			report.Findings = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
	}
	findings := os.Stdout
	if *jsonOut {
		findings = os.Stderr
	}
	for _, d := range diags {
		if !d.Suppressed {
			fmt.Fprintln(findings, d)
		}
	}
	fmt.Fprintf(os.Stderr, "hanccr-lint: %d finding(s), %d suppressed\n", unsuppressed, suppressed)
	if unsuppressed > 0 {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod, so the binary works from any subdirectory of the repo.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("hanccr-lint: no go.mod above %s (pass -dir)", dir)
		}
		dir = parent
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
