package hanccr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
)

// refWriteInjected is the reference model of appendInjected: the
// injected-document fields written with fmt into the hash.
func refWriteInjected(s Scenario, h hash.Hash) {
	fmt.Fprintf(h, "src=%d:%s|", len(s.source), s.source)
	switch s.format {
	case "json", "dax":
		fmt.Fprintf(h, "format=%s|", s.format)
	default:
		fmt.Fprintf(h, "format=%d:%s|", len(s.format), s.format)
	}
	fmt.Fprintf(h, "doc=%d:", len(s.graph))
	h.Write(s.graph)
}

// refKeys is the reference model of Key, StructureKey and ParamKey:
// each preimage written with fmt into a streaming SHA-256.
func refKeys(s Scenario) (key, structure, param string) {
	h := sha256.New()
	fmt.Fprintf(h, "family=%s|tasks=%d|procs=%d|pfail=%016x|ccr=%016x|seed=%d|bw=%016x|ragged=%t|strategy=%s|model=%s|",
		s.family, s.tasks, s.procs,
		math.Float64bits(s.pfail), math.Float64bits(s.ccr), s.seed,
		math.Float64bits(s.bandwidth), s.ragged, s.strategy, s.model())
	if s.graph != nil {
		refWriteInjected(s, h)
	}
	key = hex.EncodeToString(h.Sum(nil))

	h = sha256.New()
	fmt.Fprintf(h, "structure|family=%s|tasks=%d|procs=%d|seed=%d|ragged=%t|",
		s.family, s.tasks, s.procs, s.seed, s.ragged)
	if s.graph != nil {
		refWriteInjected(s, h)
	}
	structure = hex.EncodeToString(h.Sum(nil))

	h = sha256.New()
	fmt.Fprintf(h, "param|pfail=%016x|ccr=%016x|bw=%016x|strategy=%s|model=%s|",
		math.Float64bits(s.pfail), math.Float64bits(s.ccr),
		math.Float64bits(s.bandwidth), s.strategy, s.model())
	param = hex.EncodeToString(h.Sum(nil))
	return key, structure, param
}

// TestScenarioKeysMatchReference pins the three appended preimages to
// their fmt spelling over the key grid plus knobs at their extremes:
// negative and huge integers, negative and special floats, an unknown
// strategy, a hand-built format, and a document longer than the stack
// buffer.
func TestScenarioKeysMatchReference(t *testing.T) {
	odd := NewScenario(WithSeed(-1<<63), WithTasks(-7), WithProcs(1<<40))
	odd.pfail, odd.ccr, odd.bandwidth = math.Copysign(0, -1), math.Inf(-1), math.NaN()
	odd.strategy = "no-such|strategy"
	big := NewScenario(WithWorkflow("big", "json", bytes.Repeat([]byte("x"), 3*keyPreimageLen)))
	for _, s := range append(keyGrid(), odd, big, exoticFormatScenario()) {
		key, structure, param := refKeys(s)
		if got := s.Key(); got != key {
			t.Errorf("%q: Key = %s, fmt reference %s", s.family, got, key)
		}
		if got := s.StructureKey(); got != structure {
			t.Errorf("%q: StructureKey = %s, fmt reference %s", s.family, got, structure)
		}
		if got := s.ParamKey(); got != param {
			t.Errorf("%q: ParamKey = %s, fmt reference %s", s.family, got, param)
		}
	}
}

// TestScenarioKeyAllocs pins the appended preimage on the stack: each
// key of a scenario without an injected document costs one allocation,
// the returned string.
func TestScenarioKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewScenario(WithFamily("cybershake"), WithPFail(0.01))
	for name, key := range map[string]func() string{"Key": s.Key, "StructureKey": s.StructureKey, "ParamKey": s.ParamKey} {
		if allocs := testing.AllocsPerRun(100, func() { key() }); allocs != 1 {
			t.Errorf("%s makes %.0f allocations, want 1", name, allocs)
		}
	}
}
