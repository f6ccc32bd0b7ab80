package pegasus

import (
	"fmt"
	"sort"

	"repro/internal/mspg"
)

// Options configures a generator.
type Options struct {
	// Tasks is the approximate total task count (the generators match it
	// as closely as their level structure allows; the paper uses 50, 300
	// and 1000).
	Tasks int
	// Seed drives all randomness (runtimes, file sizes); same seed, same
	// workflow.
	Seed int64
	// Ragged (Ligo only) emits the PWG-style non-M-SPG instance plus the
	// paper's dummy-dependency completion.
	Ragged bool
}

func (o Options) withDefaults() Options {
	if o.Tasks == 0 {
		o.Tasks = 50
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Generator builds a workflow family.
type Generator func(Options) (*mspg.Workflow, error)

var families = map[string]Generator{
	"montage":    Montage,
	"ligo":       Ligo,
	"genome":     Genome,
	"cybershake": CyberShake,
}

// Families lists the available workflow families in sorted order.
func Families() []string {
	out := make([]string, 0, len(families))
	for f := range families {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Known reports whether family names a registered generator.
func Known(family string) bool {
	_, ok := families[family]
	return ok
}

// Generate builds a workflow of the named family.
func Generate(family string, opts Options) (*mspg.Workflow, error) {
	gen, ok := families[family]
	if !ok {
		return nil, fmt.Errorf("pegasus: unknown family %q (have %v)", family, Families())
	}
	return gen(opts)
}

// PaperFamilies returns the three families used in the paper's
// evaluation (Figures 5-7).
func PaperFamilies() []string { return []string{"genome", "montage", "ligo"} }

// PaperSizes returns the task counts of the paper's evaluation.
func PaperSizes() []int { return []int{50, 300, 1000} }

// PaperProcessorCounts returns the processor counts used for each
// workflow size in Figures 5-7.
func PaperProcessorCounts(tasks int) []int {
	switch {
	case tasks <= 50:
		return []int{3, 5, 7, 10}
	case tasks <= 300:
		return []int{18, 35, 52, 70}
	default:
		return []int{61, 123, 184, 245}
	}
}

// PaperPFails returns the per-task failure probabilities of the
// evaluation (§VI-A).
func PaperPFails() []float64 { return []float64{0.01, 0.001, 0.0001} }
