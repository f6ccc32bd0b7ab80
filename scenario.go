package hanccr

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/wfdag"
)

// Shared scenario defaults — one source of truth for every entry point
// and every CLI flag block (see BindScenarioFlags).
const (
	DefaultFamily    = "genome"
	DefaultTasks     = 300
	DefaultProcs     = 35
	DefaultPFail     = 0.001
	DefaultCCR       = 0.01
	DefaultSeed      = 42
	DefaultBandwidth = 1e8
)

// Size caps on a scenario: generated task counts, processor counts and
// an injected document's task count. Planning allocates per task and
// per processor (about 100 bytes per processor even for a 10-task
// workflow), so without a cap one small request body could make the
// daemon allocate without bound. Both sit far above the paper's
// largest workflows (1 000 tasks) and every size the CLIs and tests
// use; a scenario beyond either is ErrBadScenario.
const (
	maxScenarioTasks = 100_000
	maxScenarioProcs = 10_000
)

// Scenario is one planning request: which workflow to run (a generated
// Pegasus family or an injected DAG document), on what platform, under
// which checkpoint strategy. Scenarios are immutable values built with
// functional options; the zero value of every knob means "the shared
// default". Two scenarios with the same Key() describe the same
// request.
type Scenario struct {
	family    string
	tasks     int
	procs     int
	pfail     float64
	ccr       float64
	seed      int64
	bandwidth float64
	ragged    bool
	strategy  Strategy
	exact     bool // exact segment cost model instead of first-order

	source string // label of an injected workflow ("" = generated)
	graph  []byte // serialized workflow document when injected
	format string // "json" | "dax"

	err error // first option failure, surfaced by Validate
}

// ScenarioOption configures a Scenario.
type ScenarioOption func(*Scenario)

// NewScenario builds a scenario from the shared defaults plus opts.
func NewScenario(opts ...ScenarioOption) Scenario {
	s := Scenario{
		family:    DefaultFamily,
		tasks:     DefaultTasks,
		procs:     DefaultProcs,
		pfail:     DefaultPFail,
		ccr:       DefaultCCR,
		seed:      DefaultSeed,
		bandwidth: DefaultBandwidth,
		strategy:  CkptSome,
	}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// WithFamily selects the generated workflow family (montage, ligo,
// genome or cybershake).
func WithFamily(family string) ScenarioOption { return func(s *Scenario) { s.family = family } }

// WithTasks sets the approximate task count of the generated workflow.
func WithTasks(n int) ScenarioOption { return func(s *Scenario) { s.tasks = n } }

// WithProcs sets the processor count of the platform.
func WithProcs(n int) ScenarioOption { return func(s *Scenario) { s.procs = n } }

// WithPFail sets the per-task failure probability that calibrates the
// platform's exponential failure rate λ (§VI-A).
func WithPFail(p float64) ScenarioOption { return func(s *Scenario) { s.pfail = p } }

// WithCCR rescales the workflow's file sizes so its
// communication-to-computation ratio hits the target.
func WithCCR(ccr float64) ScenarioOption { return func(s *Scenario) { s.ccr = ccr } }

// WithSeed drives workflow generation and the schedule linearization.
func WithSeed(seed int64) ScenarioOption { return func(s *Scenario) { s.seed = seed } }

// WithBandwidth sets the stable-storage bandwidth in bytes/s.
func WithBandwidth(bw float64) ScenarioOption { return func(s *Scenario) { s.bandwidth = bw } }

// WithRagged (ligo only) generates the PWG-style non-M-SPG artifact
// plus the paper's dummy-dependency completion.
func WithRagged(r bool) ScenarioOption { return func(s *Scenario) { s.ragged = r } }

// WithStrategy selects the checkpoint strategy NewPlan applies
// (default CkptSome).
func WithStrategy(st Strategy) ScenarioOption { return func(s *Scenario) { s.strategy = st } }

// WithExactCostModel switches the segment cost model from the paper's
// first-order Eq. (2) to the exact restart expectation (ablation A4).
func WithExactCostModel() ScenarioOption { return func(s *Scenario) { s.exact = true } }

// WithWorkflow injects a serialized workflow document instead of
// generating one. format is "json" (this library's native schema) or
// "dax" (the Pegasus DAX subset); name labels the workflow in outputs
// and error messages. The bytes are captured eagerly so the scenario
// stays a self-contained, hashable value.
func WithWorkflow(name, format string, doc []byte) ScenarioOption {
	return func(s *Scenario) {
		format = strings.ToLower(format)
		if format != "json" && format != "dax" {
			s.err = fmt.Errorf("%w: unsupported workflow format %q (want json or dax)", ErrParse, format)
			return
		}
		s.source = name
		s.format = format
		s.graph = bytes.Clone(doc)
	}
}

// WithWorkflowFile injects the workflow stored at path (.json, .dax or
// .xml). The file is read eagerly, so the scenario — and its cache key —
// is pinned to the content at option time.
func WithWorkflowFile(path string) ScenarioOption {
	return func(s *Scenario) {
		data, err := os.ReadFile(path)
		if err != nil {
			s.err = err
			return
		}
		format := ""
		switch strings.ToLower(filepath.Ext(path)) {
		case ".json":
			format = "json"
		case ".dax", ".xml":
			format = "dax"
		default:
			s.err = fmt.Errorf("%w: unsupported workflow format %q (want .json, .dax or .xml)", ErrParse, filepath.Ext(path))
			return
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		s.source = name
		s.format = format
		s.graph = data
	}
}

// Generated reports whether the scenario generates its workflow (true)
// or carries an injected document (false).
func (s Scenario) Generated() bool { return s.graph == nil }

// Strategy returns the checkpoint strategy the scenario requests.
func (s Scenario) Strategy() Strategy { return s.strategy }

// Seed returns the scenario's seed.
func (s Scenario) Seed() int64 { return s.seed }

// Validate reports the first configuration error, wrapped in
// ErrBadScenario (or ErrParse for an unreadable injected workflow).
func (s Scenario) Validate() error {
	if s.err != nil {
		if errors.Is(s.err, ErrParse) {
			return s.err
		}
		return fmt.Errorf("%w: %v", ErrBadScenario, s.err)
	}
	if s.graph == nil {
		if !pegasus.Known(s.family) {
			return fmt.Errorf("%w: unknown family %q (have %v)", ErrBadScenario, s.family, pegasus.Families())
		}
		if err := checkTasks(s.tasks); err != nil {
			return err
		}
	}
	if err := checkProcs(s.procs); err != nil {
		return err
	}
	if s.pfail < 0 || s.pfail >= 1 {
		return fmt.Errorf("%w: pfail %g outside [0, 1)", ErrBadScenario, s.pfail)
	}
	if s.ccr < 0 {
		return fmt.Errorf("%w: negative CCR %g", ErrBadScenario, s.ccr)
	}
	if s.bandwidth <= 0 {
		return fmt.Errorf("%w: non-positive bandwidth %g", ErrBadScenario, s.bandwidth)
	}
	switch s.strategy {
	case CkptSome, CkptAll, CkptNone, ExitOnly:
	default:
		return fmt.Errorf("%w: %q (have %v)", ErrUnknownStrategy, s.strategy, Strategies())
	}
	return nil
}

// checkTasks reports a task count outside [1, maxScenarioTasks].
func checkTasks(n int) error {
	if n < 1 {
		return fmt.Errorf("%w: need at least one task, got %d", ErrBadScenario, n)
	}
	if n > maxScenarioTasks {
		return fmt.Errorf("%w: %d tasks above the limit of %d", ErrBadScenario, n, maxScenarioTasks)
	}
	return nil
}

// checkProcs reports a processor count outside [1, maxScenarioProcs].
func checkProcs(n int) error {
	if n < 1 {
		return fmt.Errorf("%w: need at least one processor, got %d", ErrBadScenario, n)
	}
	if n > maxScenarioProcs {
		return fmt.Errorf("%w: %d processors above the limit of %d", ErrBadScenario, n, maxScenarioProcs)
	}
	return nil
}

// model names the segment cost model in hash preimages.
func (s Scenario) model() string {
	if s.exact {
		return "exact"
	}
	return "first-order"
}

// appendInjected appends the injected-document fields to a hash
// preimage. Every variable-length, user-controlled field is
// length-prefixed so no (source, format, document) triple can collide
// with another by moving bytes across a field boundary. The two
// formats WithWorkflow can produce keep their historical bare
// encoding ("format=json|" / "format=dax|") so every key ever written
// to a plan store stays valid; any other format value
// (only constructible by hand, but a future format must not reopen
// the hole) is length-prefixed like its neighbors — unambiguous
// because a prefixed format starts with a digit, never 'j' or 'd'.
func (s Scenario) appendInjected(b []byte) []byte {
	b = appendLenPrefixed(append(b, "src="...), s.source)
	switch s.format {
	case "json", "dax":
		b = append(append(b, "format="...), s.format...)
		b = append(b, '|')
	default:
		b = appendLenPrefixed(append(b, "format="...), s.format)
	}
	b = strconv.AppendInt(append(b, "doc="...), int64(len(s.graph)), 10)
	b = append(b, ':')
	return append(b, s.graph...)
}

// appendLenPrefixed appends "<len(v)>:<v>|".
func appendLenPrefixed(b []byte, v string) []byte {
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, ':')
	b = append(b, v...)
	return append(b, '|')
}

// appendHex16 appends v as 16 lowercase hex digits, zero-padded (the
// preimage spelling of a float's bit pattern).
func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// keyPreimageLen sizes the stack buffer a key's preimage is appended
// into; a preimage that outgrows it, such as one holding an injected
// document, moves to the heap.
const keyPreimageLen = 256

// hashKey returns the hex SHA-256 of a key preimage.
func hashKey(preimage []byte) string {
	sum := sha256.Sum256(preimage)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// Key returns the canonical scenario hash: a hex SHA-256 over every
// knob that influences the resulting plan (floats hashed by their exact
// bit patterns, injected documents by content). It is the cache key of
// Service and stable across processes.
//
// Key is the full identity; StructureKey and ParamKey split the same
// knobs into the two levels the near-duplicate fast path caches on.
// The three preimages are independent (Key is NOT the concatenation of
// the other two — its historical byte layout interleaves the levels),
// but they partition the same fields: every knob hashed by Key is
// hashed by exactly one of StructureKey and ParamKey, which is what
// makes the (StructureKey, ParamKey) pair injective w.r.t. Key.
//
// The preimage is "family=%s|tasks=%d|procs=%d|pfail=%016x|ccr=%016x|
// seed=%d|bw=%016x|ragged=%t|strategy=%s|model=%s|" in fmt's verbs,
// floats by bit pattern, then the injected-document fields; the
// golden keys test pins it.
func (s Scenario) Key() string {
	var buf [keyPreimageLen]byte
	b := append(append(buf[:0], "family="...), s.family...)
	b = strconv.AppendInt(append(b, "|tasks="...), int64(s.tasks), 10)
	b = strconv.AppendInt(append(b, "|procs="...), int64(s.procs), 10)
	b = appendHex16(append(b, "|pfail="...), math.Float64bits(s.pfail))
	b = appendHex16(append(b, "|ccr="...), math.Float64bits(s.ccr))
	b = strconv.AppendInt(append(b, "|seed="...), s.seed, 10)
	b = appendHex16(append(b, "|bw="...), math.Float64bits(s.bandwidth))
	b = strconv.AppendBool(append(b, "|ragged="...), s.ragged)
	b = append(append(b, "|strategy="...), s.strategy...)
	b = append(append(b, "|model="...), s.model()...)
	b = append(b, '|')
	if s.graph != nil {
		b = s.appendInjected(b)
	}
	return hashKey(b)
}

// StructureKey returns the structure-level scenario hash: a hex
// SHA-256 over exactly the knobs that determine the materialized
// workflow and its Algorithm 1 schedule shape — family/tasks/seed/
// ragged (or the injected document's content), plus the processor
// count the superchains are packed onto. Two scenarios with equal
// StructureKey share their recognized M-SPG tree, generated workflow
// topology and superchain scaffolding; only the planning tail
// (ParamKey) can differ. It is the lookup key of the Service's
// scaffold cache.
//
// The bandwidth, pfail, ccr, strategy and model knobs are deliberately
// absent: the schedule is built from task weights and graph topology
// only, so none of them can change it (pinned by the façade's
// byte-identity tests). The preimage is
// "structure|family=%s|tasks=%d|procs=%d|seed=%d|ragged=%t|", then
// the injected-document fields.
func (s Scenario) StructureKey() string {
	var buf [keyPreimageLen]byte
	b := append(append(buf[:0], "structure|family="...), s.family...)
	b = strconv.AppendInt(append(b, "|tasks="...), int64(s.tasks), 10)
	b = strconv.AppendInt(append(b, "|procs="...), int64(s.procs), 10)
	b = strconv.AppendInt(append(b, "|seed="...), s.seed, 10)
	b = strconv.AppendBool(append(b, "|ragged="...), s.ragged)
	b = append(b, '|')
	if s.graph != nil {
		b = s.appendInjected(b)
	}
	return hashKey(b)
}

// ParamKey returns the parameter-level scenario hash: a hex SHA-256
// over the knobs StructureKey leaves out — pfail, ccr, bandwidth,
// strategy and the cost model, i.e. everything that only affects the
// parameter-dependent planning tail (platform calibration, CCR
// rescaling, checkpoint placement and makespan evaluation) on a fixed
// scaffold. (StructureKey, ParamKey) identifies a scenario exactly as
// Key does. The preimage is
// "param|pfail=%016x|ccr=%016x|bw=%016x|strategy=%s|model=%s|".
func (s Scenario) ParamKey() string {
	var buf [keyPreimageLen]byte
	b := appendHex16(append(buf[:0], "param|pfail="...), math.Float64bits(s.pfail))
	b = appendHex16(append(b, "|ccr="...), math.Float64bits(s.ccr))
	b = appendHex16(append(b, "|bw="...), math.Float64bits(s.bandwidth))
	b = append(append(b, "|strategy="...), s.strategy...)
	b = append(append(b, "|model="...), s.model()...)
	return hashKey(append(b, '|'))
}

// ScenarioRequest is the wire shape of a scenario: the JSON schema
// shared by every /v1 endpoint and each /v1/batch job. Omitted fields
// take the shared defaults; pfail, ccr and seed are pointers so an
// explicit zero survives the trip.
type ScenarioRequest struct {
	Family     string   `json:"family,omitempty"`
	Tasks      int      `json:"tasks,omitempty"`
	Procs      int      `json:"procs,omitempty"`
	PFail      *float64 `json:"pfail,omitempty"`
	CCR        *float64 `json:"ccr,omitempty"`
	Seed       *int64   `json:"seed,omitempty"`
	Bandwidth  float64  `json:"bandwidth,omitempty"`
	Ragged     bool     `json:"ragged,omitempty"`
	Strategy   string   `json:"strategy,omitempty"`
	ExactModel bool     `json:"exact_model,omitempty"`
	// WorkflowJSON injects a workflow document (the native JSON schema)
	// instead of generating a family.
	WorkflowJSON json.RawMessage `json:"workflow_json,omitempty"`
	// WorkflowName labels an injected workflow (default "inline").
	WorkflowName string `json:"workflow_name,omitempty"`
}

// Scenario converts the request into a Scenario value: the defaults of
// NewScenario with every set field written over them.
func (r ScenarioRequest) Scenario() Scenario {
	s := NewScenario()
	if r.Family != "" {
		s.family = r.Family
	}
	if r.Tasks != 0 {
		s.tasks = r.Tasks
	}
	if r.Procs != 0 {
		s.procs = r.Procs
	}
	if r.PFail != nil {
		s.pfail = *r.PFail
	}
	if r.CCR != nil {
		s.ccr = *r.CCR
	}
	if r.Seed != nil {
		s.seed = *r.Seed
	}
	if r.Bandwidth != 0 {
		s.bandwidth = r.Bandwidth
	}
	s.ragged = r.Ragged
	if r.Strategy != "" {
		// Canonicalize case-insensitively; an unknown name is carried
		// through verbatim so Validate reports the typed
		// ErrUnknownStrategy instead of this conversion eating it.
		st, err := ParseStrategy(r.Strategy)
		if err != nil {
			st = Strategy(r.Strategy)
		}
		s.strategy = st
	}
	s.exact = r.ExactModel
	if len(r.WorkflowJSON) > 0 {
		// As WithWorkflow: the document is captured eagerly.
		s.source = cmp.Or(r.WorkflowName, "inline")
		s.format = "json"
		s.graph = bytes.Clone(r.WorkflowJSON)
	}
	return s
}

// materialize produces the scenario's workflow with the generator's
// own file sizes (no CCR rescaling). The returned workflow is private
// to the caller: a generated one is drawn from memo, a Memo owned by
// the calling scope (nil: generated afresh, as every plan path does),
// and an injected one is re-parsed.
func (s Scenario) materialize(ctx context.Context, memo *pegasus.Memo) (*mspg.Workflow, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if s.graph != nil {
		var (
			g   *wfdag.Graph
			err error
		)
		switch s.format {
		case "json":
			g, err = wfdag.ReadJSON(bytes.NewReader(s.graph))
		case "dax":
			g, err = wfdag.ReadDAX(bytes.NewReader(s.graph))
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrParse, core.NewParseError(s.source, err))
		}
		if n := g.NumTasks(); n > maxScenarioTasks {
			return nil, 0, fmt.Errorf("%w: workflow %q has %d tasks, above the limit of %d", ErrBadScenario, s.source, n, maxScenarioTasks)
		}
		w, redundant, err := mspg.WorkflowFromGraph(s.source, g)
		if err != nil {
			return nil, redundant, fmt.Errorf("%w: %v", ErrNotMSPG, err)
		}
		return w, redundant, nil
	}
	w, err := memo.Generate(s.family, pegasus.Options{Tasks: s.tasks, Seed: s.seed, Ragged: s.ragged})
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	return w, 0, nil
}

// params is the scenario's calibration target for the pipeline's
// tail: its processor count, bandwidth, pfail and CCR.
func (s Scenario) params() core.Params {
	return core.Params{Procs: s.procs, Bandwidth: s.bandwidth, PFail: s.pfail, CCR: s.ccr}
}

// coreConfig translates the scenario into the internal pipeline
// configuration.
func (s Scenario) coreConfig() core.Config {
	model := ckpt.ModelFirstOrder
	if s.exact {
		model = ckpt.ModelExact
	}
	return core.Config{
		Strategy:  ckpt.Strategy(s.strategy),
		Estimator: ckpt.EstPathApprox,
		Seed:      s.seed,
		Model:     model,
	}
}
