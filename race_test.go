//go:build race

package hanccr

// raceEnabled reports a -race build: the detector's instrumentation
// allocates, so allocation guards measure a different program under it.
const raceEnabled = true
