//go:build !race

package hanccr

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
