package hanccr

import (
	"bytes"
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/wfdag"
)

// TestIntegrationMatrix runs the complete pipeline — generate, schedule,
// checkpoint, evaluate, simulate — across every workflow family, the
// three strategies, both cost models and all estimators, checking the
// cross-cutting invariants that individual package tests cannot see
// together.
func TestIntegrationMatrix(t *testing.T) {
	for _, fam := range pegasus.Families() {
		for _, strat := range []ckpt.Strategy{ckpt.CkptSome, ckpt.CkptAll, ckpt.CkptNone} {
			for _, model := range []ckpt.CostModel{ckpt.ModelFirstOrder, ckpt.ModelExact} {
				w, err := pegasus.Generate(fam, pegasus.Options{Tasks: 80, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				pf := platform.New(5, 0, 1e8).WithLambdaForPFail(0.001, w.G)
				pf.ScaleToCCR(w.G, 0.05)
				res, err := core.Run(context.Background(), w, pf, core.Config{Strategy: strat, Model: model, Seed: 11})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", fam, strat, model, err)
				}
				if res.ExpectedMakespan < res.FailureFreeMakespan-1e-9 {
					t.Fatalf("%s/%s/%s: E[M] %g below W_par %g",
						fam, strat, model, res.ExpectedMakespan, res.FailureFreeMakespan)
				}
				if strat == ckpt.CkptNone {
					continue
				}
				// The DES agrees with the analytic estimate at this λ.
				s, _, err := sim.EstimateExpectedDetail(context.Background(), res.Plan, 400, 11, 0)
				if err != nil {
					t.Fatal(err)
				}
				if dist.RelErr(res.ExpectedMakespan, s.Mean) > 0.03 {
					t.Fatalf("%s/%s/%s: analytic %g vs DES %g±%g",
						fam, strat, model, res.ExpectedMakespan, s.Mean, s.CI95)
				}
			}
		}
	}
}

// TestIntegrationSerializationPipeline checks that a generated workflow
// survives JSON and DAX round trips and yields the identical plan.
func TestIntegrationSerializationPipeline(t *testing.T) {
	w, err := pegasus.Generate("montage", pegasus.Options{Tasks: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.New(7, 0, 1e8).WithLambdaForPFail(0.001, w.G)
	base, err := core.Run(context.Background(), w, pf, core.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := w.G.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	g2, err := wfdag.ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	w2, redundant, err := mspg.WorkflowFromGraph("roundtrip", g2)
	if err != nil || redundant != 0 {
		t.Fatalf("recognition after JSON: %v (%d redundant)", err, redundant)
	}
	again, err := core.Run(context.Background(), w2, pf, core.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(again.ExpectedMakespan-base.ExpectedMakespan)/base.ExpectedMakespan > 1e-9 {
		t.Fatalf("plan changed after JSON round trip: %g vs %g",
			again.ExpectedMakespan, base.ExpectedMakespan)
	}

	var dax bytes.Buffer
	if err := w.G.WriteDAX(&dax, "montage"); err != nil {
		t.Fatal(err)
	}
	g3, err := wfdag.ReadDAX(&dax)
	if err != nil {
		t.Fatal(err)
	}
	w3, _, err := mspg.WorkflowFromGraph("daxtrip", g3)
	if err != nil {
		t.Fatal(err)
	}
	third, err := core.Run(context.Background(), w3, pf, core.Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// DAX preserves weights and sizes but renames tasks; the plan value
	// must still match (same structure, same numbers).
	if math.Abs(third.ExpectedMakespan-base.ExpectedMakespan)/base.ExpectedMakespan > 1e-9 {
		t.Fatalf("plan changed after DAX round trip: %g vs %g",
			third.ExpectedMakespan, base.ExpectedMakespan)
	}
}

// buildBinary compiles one cmd/<name> binary into dir and returns its
// path.
func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("building cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

// TestIntegrationBinariesWorkersFlag drives cmd/experiments and
// cmd/schedule end-to-end as real processes with -workers 4 — the wired
// flag path no unit test sees — and checks that the emitted artifacts
// exist and are byte-identical to a -workers 1 run (the binaries'
// user-facing determinism promise).
func TestIntegrationBinariesWorkersFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	dir := t.TempDir()

	experiments := buildBinary(t, dir, "experiments")
	outputs := make(map[string]string)
	for _, workers := range []string{"1", "4"} {
		outDir := filepath.Join(dir, "results"+workers)
		cmd := exec.Command(experiments,
			"-exp", "fig5", "-points", "1", "-sizes", "50", "-plots=false",
			"-out", outDir, "-workers", workers)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("experiments -workers %s: %v\n%s", workers, err, out)
		}
		csv, err := os.ReadFile(filepath.Join(outDir, "fig5_genome.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(csv), "\n"); lines < 2 {
			t.Fatalf("experiments -workers %s: csv has %d lines", workers, lines)
		}
		// Stdout carries wall-clock timings, so only the CSV artifact is
		// comparable across runs.
		outputs["csv"+workers] = string(csv)
	}
	if outputs["csv1"] != outputs["csv4"] {
		t.Fatal("fig5 CSV differs between -workers 1 and -workers 4")
	}

	schedule := buildBinary(t, dir, "schedule")
	for _, workers := range []string{"1", "4"} {
		cmd := exec.Command(schedule,
			"-family", "montage", "-tasks", "80", "-procs", "7", "-workers", workers)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("schedule -workers %s: %v\n%s", workers, err, out)
		}
		for _, want := range []string{"CkptSome", "CkptAll", "CkptNone", "EM(CkptAll)/EM(CkptSome)"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("schedule -workers %s output missing %q:\n%s", workers, want, out)
			}
		}
		outputs["sched"+workers] = string(out)
	}
	if outputs["sched1"] != outputs["sched4"] {
		t.Fatal("schedule output differs between -workers 1 and -workers 4")
	}
}

// TestIntegrationPaperHeadlines pins the paper's three headline claims
// on a mid-size configuration so regressions in any layer surface here.
func TestIntegrationPaperHeadlines(t *testing.T) {
	check := func(fam string, ccr float64, pfail float64) (relAll, relNone float64) {
		w, err := pegasus.Generate(fam, pegasus.Options{Tasks: 300, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		pf := platform.New(35, 0, 1e8).WithLambdaForPFail(pfail, w.G)
		pf.ScaleToCCR(w.G, ccr)
		s, err := core.BuildSchedule(w, pf, core.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := core.CompareOnSchedule(context.Background(), s, pf, core.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return cmp.RelAll(), cmp.RelNone()
	}
	// 1. CkptSome ~= CkptAll at tiny CCR; strictly better at high CCR.
	lowAll, _ := check("montage", 1e-3, 0.001)
	highAll, highNone := check("montage", 1, 0.001)
	if math.Abs(lowAll-1) > 0.01 {
		t.Fatalf("CkptAll parity at tiny CCR violated: %g", lowAll)
	}
	if highAll < 1.05 {
		t.Fatalf("CkptSome must clearly beat CkptAll at CCR=1: %g", highAll)
	}
	// 2. CkptNone wins at expensive checkpoints...
	if highNone > 1 {
		t.Fatalf("CkptNone should win at CCR=1, pfail=0.001: %g", highNone)
	}
	// 3. ...and loses badly when failures are common and checkpoints cheap.
	_, cheapNone := check("montage", 1e-3, 0.01)
	if cheapNone < 1.5 {
		t.Fatalf("CkptNone should lose clearly at tiny CCR, pfail=0.01: %g", cheapNone)
	}
}

// TestIntegrationCLIExitCodes drives cmd/evalmk and cmd/schedule as real
// processes against broken inputs and checks the documented exit-code
// contract: 2 for a workflow parse failure, 3 for a structurally valid
// workflow that is not an M-SPG.
func TestIntegrationCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	dir := t.TempDir()
	malformed := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(malformed, []byte(`{"tasks": [}`), 0o644); err != nil {
		t.Fatal(err)
	}
	notMSPG := filepath.Join(dir, "diamond.json")
	if err := os.WriteFile(notMSPG, []byte(nonMSPGDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"evalmk", "schedule"} {
		bin := buildBinary(t, dir, name)
		for _, tc := range []struct {
			input string
			code  int
		}{
			{malformed, 2},
			{notMSPG, 3},
		} {
			out, err := exec.Command(bin, "-input", tc.input).CombinedOutput()
			if err == nil {
				t.Fatalf("%s -input %s: expected failure, got:\n%s", name, tc.input, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%s: %v", name, err)
			}
			if got := ee.ExitCode(); got != tc.code {
				t.Fatalf("%s -input %s: exit %d, want %d\n%s", name, tc.input, got, tc.code, out)
			}
		}
	}
}
