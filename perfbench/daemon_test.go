package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

func TestParseProcStatReadsUtimeAndStime(t *testing.T) {
	// The command name holds a space and a ')'; fields 14 and 15 are
	// utime 731 and stime 55.
	line := "4242 (my srv) x) R 1 4242 4242 0 -1 4194560 1200 0 3 0 731 55 0 0 20 0 9 0 1234 123456789 2000 18446744073709551615\n"
	u, s, err := parseProcStat([]byte(line))
	if err != nil || u != 731 || s != 55 {
		t.Fatalf("parseProcStat = %d, %d, %v; want 731, 55", u, s, err)
	}
	if _, _, err := parseProcStat([]byte("12 (short) R 1 2")); err == nil {
		t.Error("a truncated line parsed")
	}
	self, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc on this system")
	}
	if _, _, err := parseProcStat(self); err != nil {
		t.Errorf("own stat line: %v", err)
	}
}

// The metric names the benchmark prints must be the ones BENCHMARK.json
// declares, or the runner reads nothing.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if got, want := sorted(workloads), sorted(workloadNames()); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed map[string]metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		for _, m := range declared {
			p, ok := printed[m.Name]
			if !ok || p.Unit != m.Unit {
				t.Errorf("%s: %s (%s) declared, printed %+v", kind, m.Name, m.Unit, p)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eSummary{}.metrics())
	pass := &passResult{perReq: []float64{1}, tr: newTracer()}
	check("per_layer", spec.PerLayer, layerMetrics(&e2eResult{}, e2eSummary{}, &replayResult{untraced: pass, traced: pass}))
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
