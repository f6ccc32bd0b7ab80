package pegasus

import (
	"sync"

	"repro/internal/mspg"
)

// genKey identifies one deterministic generator output. Options carries
// exactly these knobs, so the key captures the full input space.
type genKey struct {
	family string
	tasks  int
	seed   int64
	ragged bool
}

// Memo is Generate memoized for one scope — a sweep, a study, a store
// load — and dropped with it, so nothing it generated outlives the
// caller that owns it. The first call for a (family, tasks, seed,
// ragged) key runs the generator; concurrent callers of that key wait
// for the one run, so each key generates once per Memo. Every call
// returns a private deep clone that callers may rescale (ScaleToCCR)
// or otherwise mutate freely, which is what every cell of a §VI grid
// does. The zero value is ready to use, a nil *Memo generates afresh
// on every call, and a Memo is safe for concurrent use.
type Memo struct {
	mu      sync.Mutex
	entries map[genKey]*memoEntry
}

// memoEntry is one key's generation; w is pristine and never handed
// out. w and err are safe to read after once.Do returns.
type memoEntry struct {
	once sync.Once
	w    *mspg.Workflow
	err  error
}

// Generate returns a private copy of Generate(family, opts), running
// the generator at most once per key for the life of m.
func (m *Memo) Generate(family string, opts Options) (*mspg.Workflow, error) {
	if m == nil {
		return Generate(family, opts)
	}
	opts = opts.withDefaults()
	key := genKey{family: family, tasks: opts.Tasks, seed: opts.Seed, ragged: opts.Ragged}
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[genKey]*memoEntry)
	}
	e, ok := m.entries[key]
	if !ok {
		e = &memoEntry{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	// The generators are deterministic per key, so a failure is as
	// final as a success and is kept.
	e.once.Do(func() { e.w, e.err = Generate(family, opts) })
	if e.err != nil {
		return nil, e.err
	}
	return e.w.Clone(), nil
}

// ClearGenerateCache is a no-op: every generation memo is a Memo owned
// by one call, so there is no process-wide memo to clear.
func ClearGenerateCache() {}
