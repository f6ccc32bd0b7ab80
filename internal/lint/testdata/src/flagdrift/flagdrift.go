// Fixture for the flagdrift checker.
package flagdriftfix

import "flag"

func truePositiveKnob(fs *flag.FlagSet) *int {
	return fs.Int("tasks", 300, "approximate task count") // want "shared knob"
}

func truePositiveVar(fs *flag.FlagSet, addr *string) {
	fs.StringVar(addr, "addr", ":8080", "listen address") // want "shared knob"
}

func cleanBinarySpecific(fs *flag.FlagSet) *int {
	return fs.Int("reps", 3, "binary-specific repetitions are anyone's to define")
}

// BindScenarioFlags is the canonical home; knob definitions inside it
// are the point, not drift.
func BindScenarioFlags(fs *flag.FlagSet) *int {
	return fs.Int("procs", 35, "processor count")
}

func suppressedLegacyAlias(fs *flag.FlagSet) *string {
	//hanccr:allow flagdrift fixture keeps a deprecated alias alive for one release
	return fs.String("store", "", "deprecated alias for the shared knob")
}
