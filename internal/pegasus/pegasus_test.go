package pegasus

import (
	"repro/internal/wfdag"

	"math"
	"testing"
)

func TestAllFamiliesValidateAcrossSizes(t *testing.T) {
	for _, fam := range Families() {
		for _, n := range []int{20, 50, 300, 1000} {
			w, err := Generate(fam, Options{Tasks: n, Seed: 7})
			if err != nil {
				t.Fatalf("%s/%d: %v", fam, n, err)
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", fam, n, err)
			}
			got := w.G.NumTasks()
			if math.Abs(float64(got-n)) > 0.25*float64(n)+5 {
				t.Errorf("%s/%d: generated %d tasks, too far from target", fam, n, got)
			}
		}
	}
}

// TestGeneratedTreesCanonical checks that every family builds its tree
// in canonical form, so Algorithm 1's Normalize hands it back as is.
func TestGeneratedTreesCanonical(t *testing.T) {
	for _, fam := range Families() {
		for _, n := range []int{20, 50, 300} {
			for _, ragged := range []bool{false, true} {
				w, err := Generate(fam, Options{Tasks: n, Seed: 3, Ragged: ragged})
				if err != nil {
					t.Fatal(err)
				}
				if !w.Root.IsNormalized() || w.Root.Normalize() != w.Root {
					t.Errorf("%s/%d ragged=%v: the generated tree is not canonical", fam, n, ragged)
				}
			}
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	for _, fam := range Families() {
		a, err := Generate(fam, Options{Tasks: 120, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(fam, Options{Tasks: 120, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if a.G.NumTasks() != b.G.NumTasks() || a.G.NumFiles() != b.G.NumFiles() {
			t.Fatalf("%s: same seed, different shape", fam)
		}
		for i := 0; i < a.G.NumTasks(); i++ {
			if a.G.Task(taskID(i)).Weight != b.G.Task(taskID(i)).Weight {
				t.Fatalf("%s: same seed, different weights at %d", fam, i)
			}
		}
		for i := 0; i < a.G.NumFiles(); i++ {
			if a.G.File(fileID(i)).Size != b.G.File(fileID(i)).Size {
				t.Fatalf("%s: same seed, different file sizes at %d", fam, i)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate("genome", Options{Tasks: 120, Seed: 1})
	b, _ := Generate("genome", Options{Tasks: 120, Seed: 2})
	same := true
	for i := 0; i < a.G.NumTasks() && i < b.G.NumTasks(); i++ {
		if a.G.Task(taskID(i)).Weight != b.G.Task(taskID(i)).Weight {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must change runtimes")
	}
}

func TestGenerateUnknownFamily(t *testing.T) {
	if _, err := Generate("nope", Options{}); err == nil {
		t.Fatal("unknown family must error")
	}
}

func TestTooSmallRequests(t *testing.T) {
	for fam, min := range map[string]int{"montage": 8, "genome": 7, "ligo": 6, "cybershake": 5} {
		if _, err := Generate(fam, Options{Tasks: min - 4}); err == nil {
			t.Errorf("%s must reject tiny task counts", fam)
		}
	}
}

func TestMontageStructure(t *testing.T) {
	w, err := Montage(Options{Tasks: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for id := range w.G.NumTasks() {
		task := w.G.Task(wfdag.TaskID(id))
		kinds[task.Kind]++
	}
	for _, unique := range []string{"mConcatFit", "mBgModel", "mImgtbl", "mAdd", "mJPEG"} {
		if kinds[unique] != 1 {
			t.Errorf("montage must have exactly one %s, got %d", unique, kinds[unique])
		}
	}
	if kinds["mProjectPP"] != kinds["mDiffFit"] || kinds["mProjectPP"] != kinds["mBackground"] {
		t.Errorf("montage widths inconsistent: %v", kinds)
	}
	if kinds["mProjectPP"] < 50 {
		t.Errorf("montage too narrow for 300 tasks: %v", kinds)
	}
	// Workflow inputs present on the projection level.
	inputs := 0
	for i := range w.G.NumFiles() {
		f := w.G.File(wfdag.FileID(i))
		if f.Producer == -1 {
			inputs++
		}
	}
	if inputs != kinds["mProjectPP"] {
		t.Errorf("montage inputs = %d, want %d", inputs, kinds["mProjectPP"])
	}
}

func TestGenomeStructure(t *testing.T) {
	w, err := Genome(Options{Tasks: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for id := range w.G.NumTasks() {
		task := w.G.Task(wfdag.TaskID(id))
		kinds[task.Kind]++
	}
	// The 4-stage pipelines are balanced.
	if kinds["filterContams"] != kinds["sol2sanger"] ||
		kinds["sol2sanger"] != kinds["fast2bfq"] || kinds["fast2bfq"] != kinds["map"] {
		t.Errorf("genome pipeline stages unbalanced: %v", kinds)
	}
	if kinds["fastQSplit"] != kinds["mapMerge"] {
		t.Errorf("genome lanes unbalanced: %v", kinds)
	}
	if kinds["maqIndex"] != 1 || kinds["pileup"] != 1 {
		t.Errorf("genome tail wrong: %v", kinds)
	}
}

func TestLigoStructure(t *testing.T) {
	w, err := Ligo(Options{Tasks: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for id := range w.G.NumTasks() {
		task := w.G.Task(wfdag.TaskID(id))
		kinds[task.Kind]++
	}
	if kinds["TmpltBank"] == 0 || kinds["Inspiral"] == 0 || kinds["Thinca"] == 0 || kinds["TrigBank"] == 0 {
		t.Errorf("ligo missing stages: %v", kinds)
	}
	// Inspiral tasks appear in both waves: #Inspiral = #TmpltBank + #TrigBank.
	if kinds["Inspiral"] != kinds["TmpltBank"]+kinds["TrigBank"] {
		t.Errorf("ligo inspiral counts wrong: %v", kinds)
	}
}

func TestRaggedLigoAddsDummies(t *testing.T) {
	reg, err := Ligo(Options{Tasks: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rag, err := Ligo(Options{Tasks: 300, Seed: 5, Ragged: true})
	if err != nil {
		t.Fatal(err)
	}
	if rag.G.NumEdges() <= reg.G.NumEdges() {
		t.Fatal("ragged ligo must add cross-group and dummy edges")
	}
	// Dummy files are zero-sized: same total bytes apart from the veto file.
	zeroFiles := 0
	for i := range rag.G.NumFiles() {
		f := rag.G.File(wfdag.FileID(i))
		if f.Size == 0 {
			zeroFiles++
		}
	}
	if zeroFiles == 0 {
		t.Fatal("ragged ligo must carry zero-byte dummy files")
	}
}

func TestCyberShakeStructure(t *testing.T) {
	w, err := CyberShake(Options{Tasks: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for id := range w.G.NumTasks() {
		task := w.G.Task(wfdag.TaskID(id))
		kinds[task.Kind]++
	}
	if kinds["SeismogramSynthesis"] != kinds["PeakValCalc"] {
		t.Errorf("cybershake 1:1 chains unbalanced: %v", kinds)
	}
	if kinds["ExtractSGT"]%2 != 0 {
		t.Errorf("cybershake must have 2 extractions per site: %v", kinds)
	}
}

func TestWeightsPositiveAndVaried(t *testing.T) {
	for _, fam := range Families() {
		w, err := Generate(fam, Options{Tasks: 200, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[float64]bool{}
		for id := range w.G.NumTasks() {
			task := w.G.Task(wfdag.TaskID(id))
			if task.Weight <= 0 {
				t.Fatalf("%s: non-positive weight", fam)
			}
			seen[task.Weight] = true
		}
		if len(seen) < 10 {
			t.Errorf("%s: suspiciously few distinct weights (%d)", fam, len(seen))
		}
		for i := range w.G.NumFiles() {
			f := w.G.File(wfdag.FileID(i))
			if f.Size < 0 {
				t.Fatalf("%s: negative file size", fam)
			}
		}
	}
}

func TestPaperParameterHelpers(t *testing.T) {
	if got := PaperProcessorCounts(50); got[0] != 3 || got[3] != 10 {
		t.Fatalf("procs(50) = %v", got)
	}
	if got := PaperProcessorCounts(300); got[0] != 18 || got[3] != 70 {
		t.Fatalf("procs(300) = %v", got)
	}
	if got := PaperProcessorCounts(1000); got[0] != 61 || got[3] != 245 {
		t.Fatalf("procs(1000) = %v", got)
	}
	if len(PaperFamilies()) != 3 || len(PaperSizes()) != 3 || len(PaperPFails()) != 3 {
		t.Fatal("paper parameter sets wrong")
	}
}

func TestProfilesDrawPositive(t *testing.T) {
	b := newBuilder(3)
	for _, p := range []profile{pMProject, pMAdd, pMap, pInspiral, pSeisSynth} {
		for i := 0; i < 100; i++ {
			if v := p.drawRuntime(b.rng); v <= 0 {
				t.Fatalf("%s runtime %g", p.kind, v)
			}
			if v := p.drawBytes(b.rng); v <= 0 {
				t.Fatalf("%s bytes %g", p.kind, v)
			}
		}
	}
}

func taskID(i int) wfdag.TaskID { return wfdag.TaskID(i) }
func fileID(i int) wfdag.FileID { return wfdag.FileID(i) }
