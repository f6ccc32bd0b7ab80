package hanccr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/expt"
	"repro/internal/pegasus"
)

// PlanResponse is the body of POST /v1/plan.
type PlanResponse struct {
	Key                 string  `json:"key"`
	Strategy            string  `json:"strategy"`
	Workflow            string  `json:"workflow"`
	Tasks               int     `json:"tasks"`
	ExpectedMakespan    float64 `json:"expected_makespan"`
	FailureFreeMakespan float64 `json:"failure_free_makespan"`
	Checkpoints         int     `json:"checkpoints"`
	Superchains         int     `json:"superchains"`
	Segments            int     `json:"segments"`
}

// EstimateRequest is the body of POST /v1/estimate.
type EstimateRequest struct {
	ScenarioRequest
	Method   string `json:"method"`
	MCTrials int    `json:"mc_trials,omitempty"`
	MCSeed   *int64 `json:"mc_seed,omitempty"`
	Workers  int    `json:"workers,omitempty"`
}

// EstimateResponse is the body of POST /v1/estimate.
type EstimateResponse struct {
	Key              string  `json:"key"`
	Method           string  `json:"method"`
	ExpectedMakespan float64 `json:"expected_makespan"`
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	ScenarioRequest
	Trials  int    `json:"trials,omitempty"`
	SimSeed *int64 `json:"sim_seed,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// SimulateResponse is the body of POST /v1/simulate.
type SimulateResponse struct {
	Key          string  `json:"key"`
	Trials       int     `json:"trials"`
	Mean         float64 `json:"mean"`
	StdDev       float64 `json:"stddev"`
	CI95         float64 `json:"ci95"`
	MeanFailures float64 `json:"mean_failures"`
}

// BatchJobRequest is one job of a POST /v1/batch body: a scenario plus
// the kind of work ("plan" | "estimate" | "simulate") and that kind's
// tuning fields — the union of the single-endpoint request shapes. The
// single endpoints decode their bodies into it too, with Kind taken
// from the path.
type BatchJobRequest struct {
	ScenarioRequest
	Kind     string `json:"kind"`
	Method   string `json:"method,omitempty"`
	MCTrials int    `json:"mc_trials,omitempty"`
	MCSeed   *int64 `json:"mc_seed,omitempty"`
	Trials   int    `json:"trials,omitempty"`
	SimSeed  *int64 `json:"sim_seed,omitempty"`
	Workers  int    `json:"workers,omitempty"`
}

// BatchRequest is the body of POST /v1/batch. Workers bounds the
// goroutines fanning the jobs out (0 = all cores); results are
// byte-identical for every worker count.
type BatchRequest struct {
	Workers int               `json:"workers,omitempty"`
	Jobs    []BatchJobRequest `json:"jobs"`
}

// BatchResult is one slot of a BatchResponse: exactly one of Plan,
// Estimate or Simulate is set on success — byte-identical to the
// response the matching single endpoint returns for the same job — or
// Error/Status carry the job's failure.
type BatchResult struct {
	Plan     *PlanResponse     `json:"plan,omitempty"`
	Estimate *EstimateResponse `json:"estimate,omitempty"`
	Simulate *SimulateResponse `json:"simulate,omitempty"`
	Error    string            `json:"error,omitempty"`
	Status   int               `json:"status,omitempty"`
}

// BatchResponse is the body of POST /v1/batch; Results[i] answers
// Jobs[i].
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// SweepRequest is the body of POST /v1/sweep: a §VI-style grid over
// one workflow family. Omitted fields take the paper's grid for the
// family (expt.FigureConfig) — an empty body sweeps the full Figure 5
// GENOME panel — while an explicitly empty sizes/procs/pfails list is
// an empty grid and rejected. Seed follows the experiment engine's
// convention: 0 (or omitted) selects the paper's seed 42, unlike the
// single-scenario endpoints where an explicit seed 0 is honored.
// Workers bounds the cell fan-out (0 = all cores; values outside
// [0, cores] are clamped to all cores); rows are byte-identical for
// every worker count.
//
// Stream (or an Accept header naming application/x-ndjson) switches
// the response to NDJSON: one SweepStreamHeader line, then one
// SweepRow per line in canonical grid order, each flushed as it is
// computed. Streamed grids get the daemon's far higher streaming cell
// ceiling since rows never accumulate server-side.
type SweepRequest struct {
	Family          string    `json:"family,omitempty"`
	Sizes           []int     `json:"sizes,omitempty"`
	Procs           []int     `json:"procs,omitempty"`
	PFails          []float64 `json:"pfails,omitempty"`
	CCRMin          float64   `json:"ccr_min,omitempty"`
	CCRMax          float64   `json:"ccr_max,omitempty"`
	PointsPerDecade int       `json:"points_per_decade,omitempty"`
	Seed            int64     `json:"seed,omitempty"`
	Bandwidth       float64   `json:"bandwidth,omitempty"`
	Ragged          bool      `json:"ragged,omitempty"`
	Workers         int       `json:"workers,omitempty"`
	Stream          bool      `json:"stream,omitempty"`
}

// SweepRow is one grid cell of a SweepResponse, in canonical (size,
// procs, pfail, ccr) order.
type SweepRow struct {
	Family          string  `json:"family"`
	Tasks           int     `json:"tasks"`
	Procs           int     `json:"procs"`
	PFail           float64 `json:"pfail"`
	CCR             float64 `json:"ccr"`
	EMSome          float64 `json:"em_some"`
	EMAll           float64 `json:"em_all"`
	EMNone          float64 `json:"em_none"`
	RelAll          float64 `json:"rel_all"`
	RelNone         float64 `json:"rel_none"`
	CheckpointsSome int     `json:"checkpoints_some"`
	Superchains     int     `json:"superchains"`
	WPar            float64 `json:"w_par"`
}

// SweepResponse is the body of a buffered POST /v1/sweep.
type SweepResponse struct {
	Family string     `json:"family"`
	Cells  int        `json:"cells"`
	Rows   []SweepRow `json:"rows"`
}

// SweepStreamHeader is the first NDJSON line of a streamed sweep: the
// grid's identity and cell count. The stream has no trailer on
// success, so a consumer verifies completeness by counting rows
// against Cells; a row line always carries "tasks", which the header
// (and the error object a mid-stream failure appends) never does.
type SweepStreamHeader struct {
	Family string `json:"family"`
	Cells  int    `json:"cells"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	Cache  Stats  `json:"cache"`
}

// StatsSchemaVersion identifies the GET /v1/stats JSON layout. Version
// 2 introduced the nested cache / structure_cache / store / gate
// groups; version 3 dropped the flat v1 keys emitted beside them.
const StatsSchemaVersion = 3

// CacheGroup is the plan-LRU section of GET /v1/stats.
type CacheGroup struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Shards   int    `json:"shards"`
}

// StructureCacheGroup is the scaffold-cache section of GET /v1/stats.
// Enabled is false when the near-duplicate fast path is off
// (-structure-cache 0 or a custom planner), in which case every
// counter is zero.
type StructureCacheGroup struct {
	Enabled  bool   `json:"enabled"`
	Hits     uint64 `json:"hits"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// StoreGroup is the persistent-plan-store section of GET /v1/stats
// (all zero without -store).
type StoreGroup struct {
	Hits        uint64 `json:"hits"`
	Loads       uint64 `json:"loads"`
	Records     int    `json:"records"`
	Bytes       int64  `json:"bytes"`
	Compactions uint64 `json:"compactions"`
}

// GateGroup is the admission-gate section of GET /v1/stats.
type GateGroup struct {
	InFlight        int    `json:"in_flight"`
	MaxInFlight     int    `json:"max_inflight"`
	Shed            uint64 `json:"shed"`
	DeadlineExpired uint64 `json:"deadline_expired"`
}

// StatsResponse is the body of GET /v1/stats: the schema version and
// the counters grouped by subsystem (/healthz keeps the flat Stats
// under "cache").
type StatsResponse struct {
	SchemaVersion  int                 `json:"schema_version"`
	Cache          CacheGroup          `json:"cache"`
	StructureCache StructureCacheGroup `json:"structure_cache"`
	Store          StoreGroup          `json:"store"`
	Gate           GateGroup           `json:"gate"`
}

// statsResponse regroups a flat Stats snapshot into the versioned
// /v1/stats layout.
func statsResponse(st Stats) StatsResponse {
	return StatsResponse{
		SchemaVersion: StatsSchemaVersion,
		Cache: CacheGroup{
			Hits: st.Hits, Misses: st.Misses,
			Entries: st.Entries, Capacity: st.Capacity, Shards: st.Shards,
		},
		StructureCache: StructureCacheGroup{
			Enabled: st.StructureCapacity > 0,
			Hits:    st.StructureHits,
			Entries: st.StructureEntries, Capacity: st.StructureCapacity,
		},
		Store: StoreGroup{
			Hits: st.StoreHits, Loads: st.StoreLoads,
			Records: st.StoreRecords, Bytes: st.StoreBytes, Compactions: st.Compactions,
		},
		Gate: GateGroup{
			InFlight: st.InFlight, MaxInFlight: st.MaxInFlight,
			Shed: st.Shed, DeadlineExpired: st.DeadlineExpired,
		},
	}
}

// maxRequestBody bounds /v1 request bodies (workflow documents
// included) to keep a misbehaving client from exhausting memory.
const maxRequestBody = 16 << 20

// maxHTTPTrials bounds per-request Monte Carlo / simulation trial
// counts: the samplers allocate one float64 per trial, so an unbounded
// count would let a single small request allocate tens of GB inside the
// long-lived daemon. 10M trials ≈ 80 MB, far beyond any accuracy need
// (the paper's ground truth uses 300k).
const maxHTTPTrials = 10_000_000

// maxBatchJobs bounds one /v1/batch request.
const maxBatchJobs = 1024

// maxBatchTrials bounds the SUM of trial counts across one batch —
// per-job caps alone would let maxBatchJobs jobs each carry
// maxHTTPTrials, three orders of magnitude more work than any single
// request may demand.
const maxBatchTrials = 100_000_000

// maxSweepCells bounds one BUFFERED /v1/sweep grid (the full paper
// panels are a few hundred cells each): every row of a buffered sweep
// is resident until the response is encoded, so the ceiling is a
// memory bound.
const maxSweepCells = 10_000

// DefaultStreamSweepCells is the default ceiling of a STREAMED sweep
// (cmd/serve -stream-cells, WithStreamSweepCellCap). Streamed rows are
// flushed as they are computed and only O(workers) of them ever exist
// at once, so the ceiling bounds compute time, not memory — two orders
// of magnitude above the buffered cap.
const DefaultStreamSweepCells = 1_000_000

// HandlerOption configures NewHandler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	logf        func(format string, args ...any)
	streamCells int
}

// WithLogf routes handler diagnostics to logf (e.g. log.Printf):
// response encode/write failures — otherwise invisible, the status
// line is long gone when they happen — mid-stream sweep aborts, and
// client disconnects. The default discards them.
func WithLogf(logf func(format string, args ...any)) HandlerOption {
	return func(c *handlerConfig) { c.logf = logf }
}

// WithStreamSweepCellCap sets the cell ceiling of streamed sweeps
// (default DefaultStreamSweepCells). Buffered sweeps keep the fixed
// in-memory row cap regardless.
func WithStreamSweepCellCap(n int) HandlerOption {
	return func(c *handlerConfig) {
		if n > 0 {
			c.streamCells = n
		}
	}
}

// NewHandler exposes svc over HTTP/JSON:
//
//	POST /v1/plan      — plan a scenario, returns the plan summary
//	POST /v1/estimate  — plan + estimate with a chosen method
//	POST /v1/simulate  — plan + discrete-event simulation summary
//	POST /v1/batch     — heterogeneous plan/estimate/simulate jobs, fanned over a worker pool
//	POST /v1/sweep     — a §VI-style (family, size, pfail, CCR) grid of strategy comparisons
//	GET  /healthz      — liveness plus cache statistics
//	GET  /v1/stats     — cache / admission-gate counters
//	GET  /v1/store     — the replica's plan store as NDJSON (?segment=S&offset=N&follow=1), for peers to follow
//
// Responses are deterministic functions of the request, so a cache hit
// is byte-identical to the cold miss that filled it — and so is a
// structure-hit, which reuses the scenario's cached workflow/schedule
// scaffold and re-runs only the parameter-dependent planning tail. The
// X-Cache response header (hit | structure-hit | miss, single-scenario
// endpoints only) is the only difference. Batch results and sweep rows
// are collected by index and therefore byte-identical for every worker
// count.
func NewHandler(svc *Service, opts ...HandlerOption) http.Handler {
	cfg := handlerConfig{
		logf:        func(string, ...any) {},
		streamCells: DefaultStreamSweepCells,
	}
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// GET-only, like /v1/stats: a liveness probe that mutates nothing
		// must not accept mutating verbs (it used to answer POST/DELETE).
		if !cfg.requireGet(w, r) {
			return
		}
		cfg.writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Cache: svc.Stats()})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if !cfg.requireGet(w, r) {
			return
		}
		cfg.writeJSON(w, http.StatusOK, statsResponse(svc.Stats()))
	})
	mux.HandleFunc("/v1/store", func(w http.ResponseWriter, r *http.Request) {
		if !cfg.requireGet(w, r) {
			return
		}
		cfg.streamStore(w, r, svc.store)
	})
	for path, kind := range jobPaths {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			// A single request is a one-job batch: the same wire type, the
			// same conversion, the same executor and the same renderer as
			// a batch slot, so the two cannot drift apart.
			var req BatchJobRequest
			if !cfg.readJSON(w, r, &req) {
				return
			}
			req.Kind = string(kind)
			j, err := req.job()
			if err != nil {
				cfg.writeError(w, r, err)
				return
			}
			res := svc.runJob(r.Context(), j)
			if res.Err != nil {
				cfg.writeError(w, r, res.Err)
				return
			}
			w.Header().Set("X-Cache", string(res.Outcome))
			cfg.writeJSON(w, http.StatusOK, jobResult(j, res).payload())
		})
	}
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !cfg.readJSON(w, r, &req) {
			return
		}
		if len(req.Jobs) == 0 {
			cfg.writeError(w, r, fmt.Errorf("%w: batch request needs at least one job", ErrBadScenario))
			return
		}
		if len(req.Jobs) > maxBatchJobs {
			cfg.writeError(w, r, fmt.Errorf("%w: %d jobs above the daemon limit of %d", ErrBadScenario, len(req.Jobs), maxBatchJobs))
			return
		}
		total := 0
		for _, jr := range req.Jobs {
			total += jr.trials()
		}
		if total > maxBatchTrials {
			cfg.writeError(w, r, fmt.Errorf("%w: %d total trials across the batch above the daemon limit of %d", ErrBadScenario, total, maxBatchTrials))
			return
		}
		// Cost-based load shedding: the static caps above bound what an
		// IDLE daemon accepts; under load the effective caps shrink with
		// the admission gate's free fraction, so a heavy batch is rejected
		// in microseconds instead of burning a worker pool to discover
		// per-job 429s.
		err := svc.shedCost("batch jobs", len(req.Jobs), maxBatchJobs)
		if err == nil {
			err = svc.shedCost("total batch trials", total, maxBatchTrials)
		}
		if err != nil {
			cfg.writeError(w, r, err)
			return
		}
		resp := BatchResponse{Results: make([]BatchResult, len(req.Jobs))}
		// A job the conversion rejects (over-cap trials, unknown method)
		// answers in its slot without running; everything else executes
		// and reports per slot.
		var jobs []Job
		var idx []int
		for i, jr := range req.Jobs {
			j, err := jr.job()
			if err != nil {
				resp.Results[i] = jobResult(j, JobResult{Err: err})
				continue
			}
			jobs = append(jobs, j)
			idx = append(idx, i)
		}
		results, err := svc.Batch(r.Context(), jobs, WithBatchWorkers(req.Workers))
		if err != nil {
			cfg.writeError(w, r, err)
			return
		}
		for k, res := range results {
			resp.Results[idx[k]] = jobResult(jobs[k], res)
		}
		cfg.writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		var req SweepRequest
		if !cfg.readJSON(w, r, &req) {
			return
		}
		stream := req.Stream || wantsNDJSON(r)
		capCells := maxSweepCells
		if stream {
			capCells = cfg.streamCells
		}
		scfg, err := req.sweepConfig(capCells)
		if err != nil {
			cfg.writeError(w, r, err)
			return
		}
		// Cost-based load shedding, then one admitted request for the
		// whole grid: a sweep's cells run on the experiment engine's own
		// pool, so without the slot the gate would never see sweep load —
		// and without the cell pre-screen a saturated daemon would still
		// accept million-cell grids.
		if err := svc.shedCost("sweep grid cells", scfg.NumCells(), capCells); err != nil {
			cfg.writeError(w, r, err)
			return
		}
		// A stream commits its status line as it starts, so only a shed
		// or a buffered sweep can still answer with an error status.
		committed := false
		err = svc.do(r.Context(), func(ctx context.Context) error {
			if stream {
				committed = true
				return cfg.streamSweep(w, r, ctx, scfg)
			}
			rows, err := expt.RunSweep(ctx, scfg)
			if err != nil {
				return err
			}
			resp := SweepResponse{Family: scfg.Family, Cells: len(rows), Rows: make([]SweepRow, len(rows))}
			for i, row := range rows {
				resp.Rows[i] = sweepRow(row)
			}
			cfg.writeJSON(w, http.StatusOK, resp)
			return nil
		})
		if err != nil && !committed {
			cfg.writeError(w, r, err)
		}
	})
	return mux
}

// wantsNDJSON reports whether the request negotiated a streamed NDJSON
// response via its Accept header.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ndjsonContentType)
}

// ndjsonContentType is the media type of a streamed sweep response.
const ndjsonContentType = "application/x-ndjson"

// sweepRow converts one engine row into its wire shape — the single
// mapping the buffered and streamed sweep paths share, so a streamed
// row can never drift from the matching buffered row.
func sweepRow(row expt.Row) SweepRow {
	return SweepRow{
		Family: row.Family, Tasks: row.Tasks, Procs: row.Procs,
		PFail: row.PFail, CCR: row.CCR,
		EMSome: row.EMSome, EMAll: row.EMAll, EMNone: row.EMNone,
		RelAll: row.RelAll, RelNone: row.RelNone,
		CheckpointsSome: row.CheckpointsSome, Superchains: row.Superchains,
		WPar: row.WPar,
	}
}

// streamSweep answers a sweep request as NDJSON: a SweepStreamHeader
// line, then one SweepRow line per grid cell in canonical order, each
// flushed to the client as soon as it is computed. Row bytes are
// produced by the same encoder as the buffered response, so the
// concatenated row lines are byte-identical to SweepResponse.Rows.
// The status line is committed before the first cell runs; a mid-
// stream failure therefore cannot turn into a 4xx/5xx — it appends a
// trailing {"error": ...} object and cuts the stream short of the
// advertised cell count instead.
func (c *handlerConfig) streamSweep(w http.ResponseWriter, r *http.Request, ctx context.Context, scfg expt.SweepConfig) error {
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	out := newLineWriter(w)
	if err := out.writeLine(SweepStreamHeader{Family: scfg.Family, Cells: scfg.NumCells()}); err != nil {
		c.logf("http: sweep stream: write header: %v", err)
		return err
	}
	err := expt.StreamSweep(ctx, scfg, func(row expt.Row) error {
		return out.writeLine(sweepRow(row))
	})
	switch {
	case err == nil:
	case r.Context().Err() != nil:
		// The client went away (or gave up) mid-stream; nobody is
		// reading, so there is nothing to append and nothing to account
		// as a server failure.
		c.logf("http: %s %s: client disconnected mid-stream: %v", r.Method, r.URL.Path, err)
	default:
		c.logf("http: sweep stream aborted: %v", err)
		if werr := out.writeLine(map[string]string{"error": err.Error()}); werr != nil {
			c.logf("http: sweep stream: write trailing error: %v", werr)
		}
	}
	return err
}

// requireGet enforces the read-only endpoints' method contract: 405
// with an Allow header for anything but GET.
func (c *handlerConfig) requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		c.writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use GET"})
		return false
	}
	return true
}

// streamStore answers GET /v1/store: the replica's plan store as
// NDJSON, so a peer can absorb its solved plans without a shared disk
// (Service.Follow). segment=S&offset=N resumes at a cursor an earlier
// stream handed out, and follow=1 keeps the stream open, relaying
// records as they are written, until the client disconnects. See
// PlanStore.stream for the header lines and the resume rules.
func (c *handlerConfig) streamStore(w http.ResponseWriter, r *http.Request, st *PlanStore) {
	if st == nil {
		c.writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "no plan store on this replica (-store)",
		})
		return
	}
	q := r.URL.Query()
	var cur storeCursor
	var err error
	if raw := q.Get("segment"); raw != "" {
		cur.Segment, err = strconv.ParseUint(raw, 10, 64)
	}
	if raw := q.Get("offset"); raw != "" && err == nil {
		cur.Offset, err = strconv.ParseInt(raw, 10, 64)
	}
	if err != nil || cur.Offset < 0 {
		c.writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("bad cursor segment=%q offset=%q: want non-negative integers", q.Get("segment"), q.Get("offset")),
		})
		return
	}
	follow := false
	switch q.Get("follow") {
	case "", "0", "false":
	default:
		follow = true
	}
	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	out := newLineWriter(w)
	switch err := st.stream(r.Context(), cur, follow, out.writeRawLine); {
	case err == nil:
	case r.Context().Err() != nil:
		// A follow stream ends exactly this way: the peer hung up (or
		// was redeployed). Same 499-style accounting as a sweep stream.
		c.logf("http: %s %s: client disconnected mid-stream: %v", r.Method, r.URL.Path, err)
	default:
		c.logf("http: store stream aborted: %v", err)
	}
}

// jobPaths maps each single-job endpoint to the kind of work its body
// asks for: the table NewHandler registers the endpoints from and the
// router hashes scenario bodies by.
var jobPaths = map[string]JobKind{
	"/v1/plan":     JobPlan,
	"/v1/estimate": JobEstimate,
	"/v1/simulate": JobSimulate,
}

// trials is the job's Monte Carlo or simulation trial demand, counting
// the documented default for an unset count (0 for a plan): what the
// per-job cap and a batch's aggregate cap are checked against.
func (jr BatchJobRequest) trials() int {
	n, def := 0, 0
	switch JobKind(jr.Kind) {
	case JobEstimate:
		n, def = jr.MCTrials, DefaultMCTrials
	case JobSimulate:
		n, def = jr.Trials, DefaultSimTrials
	}
	if n > 0 {
		return n
	}
	return def
}

// job converts one wire request into a Job — the one conversion the
// single endpoints and every batch slot share. It rejects a trial
// count above the daemon cap (the samplers allocate one float64 per
// trial, so the job must not run at all) and an unknown estimator, and
// carries the canonical method name the response echoes.
func (jr BatchJobRequest) job() (Job, error) {
	if n := jr.trials(); n > maxHTTPTrials {
		return Job{}, fmt.Errorf("%w: %d trials above the daemon limit of %d", ErrBadScenario, n, maxHTTPTrials)
	}
	j := Job{Kind: JobKind(jr.Kind), Scenario: jr.Scenario()}
	switch j.Kind {
	case JobEstimate:
		m, err := ParseMethod(jr.Method)
		if err != nil {
			return Job{}, err
		}
		j.Method = m
		j.EstimateOptions = estimateOptions(jr.MCTrials, jr.MCSeed, jr.Workers)
	case JobSimulate:
		j.SimOptions = simOptions(jr.Trials, jr.SimSeed, jr.Workers)
	}
	return j, nil
}

// jobResult renders one job outcome — the one renderer. A batch slot
// is the result; a single endpoint answers with its payload, so a
// batch slot is byte-identical to the single request by construction.
func jobResult(j Job, res JobResult) BatchResult {
	if res.Err != nil {
		return BatchResult{Error: res.Err.Error(), Status: errorStatus(res.Err)}
	}
	switch res.Kind {
	case JobEstimate:
		return BatchResult{Estimate: &EstimateResponse{Key: res.Key, Method: string(j.Method), ExpectedMakespan: res.Estimate}}
	case JobSimulate:
		return BatchResult{Simulate: &SimulateResponse{
			Key: res.Key, Trials: res.Sim.Trials,
			Mean: res.Sim.Mean, StdDev: res.Sim.StdDev, CI95: res.Sim.CI95, MeanFailures: res.Sim.MeanFailures,
		}}
	default:
		pr := planResponse(res.Key, res.Plan)
		return BatchResult{Plan: &pr}
	}
}

// payload is a successful slot's body: the response of the matching
// single endpoint.
func (b BatchResult) payload() any {
	switch {
	case b.Estimate != nil:
		return b.Estimate
	case b.Simulate != nil:
		return b.Simulate
	}
	return b.Plan
}

// sweepConfig validates the request and translates it into the
// experiment engine's grid, defaulting to the paper's figure grid for
// the family. maxCells is the caller's cell ceiling — the in-memory
// row cap for a buffered response, the (far higher) streaming cap for
// an NDJSON one. A present-but-empty sizes/procs/pfails list is an
// empty grid and rejected; only an omitted (null) list takes the
// paper's default.
func (r SweepRequest) sweepConfig(maxCells int) (expt.SweepConfig, error) {
	family := r.Family
	if family == "" {
		family = DefaultFamily
	}
	known := false
	for _, f := range pegasus.Families() {
		if f == family {
			known = true
			break
		}
	}
	if !known {
		return expt.SweepConfig{}, fmt.Errorf("%w: unknown family %q (have %v)", ErrBadScenario, family, pegasus.Families())
	}
	cfg := expt.FigureConfig(family)
	for _, l := range []struct {
		name    string
		present bool
		empty   bool
	}{
		{"sizes", r.Sizes != nil, len(r.Sizes) == 0},
		{"procs", r.Procs != nil, len(r.Procs) == 0},
		{"pfails", r.PFails != nil, len(r.PFails) == 0},
	} {
		if l.present && l.empty {
			return expt.SweepConfig{}, fmt.Errorf("%w: sweep grid is empty: %s list has no entries (omit it for the paper's grid)", ErrBadScenario, l.name)
		}
	}
	if len(r.Sizes) > 0 {
		cfg.Sizes = r.Sizes
	}
	if len(r.Procs) > 0 {
		cfg.Procs = r.Procs
	}
	if len(r.PFails) > 0 {
		cfg.PFails = r.PFails
	}
	if r.CCRMin > 0 {
		cfg.CCRMin = r.CCRMin
	}
	if r.CCRMax > 0 {
		cfg.CCRMax = r.CCRMax
	}
	if r.PointsPerDecade > 0 {
		cfg.PointsPerDecade = r.PointsPerDecade
	}
	if r.Seed != 0 {
		cfg.Seed = r.Seed
	}
	if r.Bandwidth > 0 {
		cfg.Bandwidth = r.Bandwidth
	}
	cfg.Ragged = r.Ragged
	// Clamp the client's worker count to the host's cores: the engine
	// caps its pool at the cell count, not the core count, so an
	// unclamped "workers":1e6 against a large streamed grid would spawn
	// that many goroutines — and inflate the streaming path's
	// O(workers) reorder window toward O(cells).
	cfg.Workers = r.Workers
	if cfg.Workers < 0 || cfg.Workers > runtime.GOMAXPROCS(0) {
		cfg.Workers = 0
	}
	for _, n := range cfg.Sizes {
		if err := checkTasks(n); err != nil {
			return expt.SweepConfig{}, err
		}
	}
	for _, p := range cfg.Procs {
		if err := checkProcs(p); err != nil {
			return expt.SweepConfig{}, err
		}
	}
	for _, pf := range cfg.PFails {
		if pf < 0 || pf >= 1 {
			return expt.SweepConfig{}, fmt.Errorf("%w: pfail %g outside [0, 1)", ErrBadScenario, pf)
		}
	}
	if cfg.CCRMin <= 0 || cfg.CCRMax < cfg.CCRMin {
		return expt.SweepConfig{}, fmt.Errorf("%w: bad CCR range [%g, %g]", ErrBadScenario, cfg.CCRMin, cfg.CCRMax)
	}
	n := cfg.NumCells()
	if n == 0 {
		return expt.SweepConfig{}, fmt.Errorf("%w: sweep grid is empty", ErrBadScenario)
	}
	if n > maxCells {
		return expt.SweepConfig{}, fmt.Errorf("%w: sweep grid of %d cells above the daemon limit of %d (streamed sweeps accept larger grids)", ErrBadScenario, n, maxCells)
	}
	return cfg, nil
}

// estimateOptions translates wire estimate knobs into façade options
// (see job).
func estimateOptions(trials int, seed *int64, workers int) []EstimateOption {
	var opts []EstimateOption
	if trials != 0 {
		opts = append(opts, WithMCTrials(trials))
	}
	if seed != nil {
		opts = append(opts, WithMCSeed(*seed))
	}
	if workers != 0 {
		opts = append(opts, WithEstimateWorkers(workers))
	}
	return opts
}

// simOptions translates wire simulation knobs into façade options (see
// job).
func simOptions(trials int, seed *int64, workers int) []SimOption {
	var opts []SimOption
	if trials != 0 {
		opts = append(opts, WithSimTrials(trials))
	}
	if seed != nil {
		opts = append(opts, WithSimSeed(*seed))
	}
	if workers != 0 {
		opts = append(opts, WithSimWorkers(workers))
	}
	return opts
}

func planResponse(key string, p *Plan) PlanResponse {
	return PlanResponse{
		Key:                 key,
		Strategy:            string(p.Strategy()),
		Workflow:            p.Workflow().Name,
		Tasks:               p.Workflow().Tasks,
		ExpectedMakespan:    p.ExpectedMakespan(),
		FailureFreeMakespan: p.FailureFreeMakespan(),
		Checkpoints:         p.NumCheckpoints(),
		Superchains:         p.NumSuperchains(),
		Segments:            p.NumSegments(),
	}
}

// readJSON decodes a POST body into dst, writing the error response
// itself when the request is unusable.
func (c *handlerConfig) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		c.writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "use POST"})
		return false
	}
	body, status, err := readBody(r)
	if err != nil {
		c.writeJSON(w, status, map[string]string{"error": err.Error()})
		return false
	}
	if err := decodeBody(body, dst); err != nil {
		c.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad request body: %v", err)})
		return false
	}
	return true
}

// readBody reads a request body under maxRequestBody — the one reader
// the replica handlers and the router share — and returns the status
// to answer with when the body is unusable.
func readBody(r *http.Request) ([]byte, int, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if len(body) > maxRequestBody {
		return nil, http.StatusRequestEntityTooLarge, errors.New("request body over 16 MiB")
	}
	return body, http.StatusOK, nil
}

// decodeBody decodes a request body into dst. An empty body means
// "{}", the all-defaults request, for the router and the replica alike,
// so the router hashes exactly the scenario the replica plans.
func decodeBody(body []byte, dst any) error {
	if len(body) == 0 {
		body = []byte("{}")
	}
	return json.Unmarshal(body, dst)
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected (or abandoned the request) before the response was
// written. No client ever reads it — it exists so the access log
// records the abort without putting a client's disappearance in the
// 5xx band.
const statusClientClosedRequest = 499

// clientGone reports whether err is the request's own context being
// cancelled — the client hung up or gave up, as opposed to a
// server-side failure or the shutdown drain deadline.
func clientGone(r *http.Request, err error) bool {
	return errors.Is(err, context.Canceled) && r.Context().Err() != nil
}

// errorStatus maps façade errors onto HTTP statuses: invalid input is
// the client's fault (400), a structurally impossible workflow is 422,
// an admission-gate rejection 429 (retry after a short backoff), a
// server-side cancellation (shutdown drain, request deadline) 503,
// anything else 500. Request-context cancellation — the client's own
// disconnect — never reaches this table; writeError intercepts it
// first.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadScenario), errors.Is(err, ErrParse),
		errors.Is(err, ErrUnknownMethod), errors.Is(err, ErrUnknownStrategy):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotMSPG):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// retryAfterSeconds is the backoff the daemon advertises on 429
// (admission gate full, cost shed) and drain-time 503 responses. Shed
// requests never ran, so retrying is always safe; one second is long
// enough for a burst to pass the gate and short enough that a load
// balancer's retry budget survives it.
const retryAfterSeconds = "1"

func (c *handlerConfig) writeError(w http.ResponseWriter, r *http.Request, err error) {
	if clientGone(r, err) {
		// The client's own disconnect is not a server failure: record it
		// at 499 for the access log (nothing reads the response) and keep
		// it out of 5xx accounting.
		c.logf("http: %s %s: client disconnected: %v", r.Method, r.URL.Path, err)
		w.WriteHeader(statusClientClosedRequest)
		return
	}
	status := errorStatus(err)
	if status == http.StatusTooManyRequests {
		// A shed request did not run; tell well-behaved clients when to
		// come back instead of letting them hammer the gate.
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	c.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (c *handlerConfig) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := newLineWriter(w).writeLine(v); err != nil {
		// The status line is already committed, so a failed or
		// half-written body cannot be reported to the client; the daemon
		// log is the only witness.
		c.logf("http: write %d response: %v", status, err)
	}
}

// lineWriter is the flush-aware JSON line writer shared by every
// response path: writeLine encodes one value (trailing newline
// included, exactly as the buffered encoder would) and flushes it to
// the client immediately when the ResponseWriter supports it — the
// per-row delivery a streamed sweep needs.
type lineWriter struct {
	w     io.Writer
	enc   *json.Encoder
	flush http.Flusher
}

func newLineWriter(w io.Writer) *lineWriter {
	lw := &lineWriter{w: w, enc: json.NewEncoder(w)}
	if f, ok := w.(http.Flusher); ok {
		lw.flush = f
	}
	return lw
}

func (lw *lineWriter) writeLine(v any) error {
	if err := lw.enc.Encode(v); err != nil {
		return err
	}
	if lw.flush != nil {
		lw.flush.Flush()
	}
	return nil
}

// writeRawLine emits one already-encoded line (newline appended) with
// the same flush-per-line delivery as writeLine — the path GET
// /v1/store uses to relay segment lines verbatim, keeping client byte
// offsets aligned with the file's.
func (lw *lineWriter) writeRawLine(line []byte) error {
	if _, err := lw.w.Write(line); err != nil {
		return err
	}
	if _, err := lw.w.Write([]byte{'\n'}); err != nil {
		return err
	}
	if lw.flush != nil {
		lw.flush.Flush()
	}
	return nil
}

// DrainGate makes graceful shutdown deterministic for clients: once
// Drain is called, every NEW request is answered immediately with
// 503 + Retry-After + Connection: close while the requests already
// past the gate run to completion. Without it, requests arriving
// during shutdown race the listener teardown and die as connection
// resets — indistinguishable from a crash to the load balancer that
// should simply move on to the next replica.
//
// Wrap the daemon's handler, then on shutdown call Drain BEFORE
// closing the listener (http.Server.Shutdown closes listeners first,
// which is exactly the race this type exists to close):
//
//	gate := new(hanccr.DrainGate)
//	srv := &http.Server{Handler: gate.Wrap(h)}
//	...
//	gate.Drain(ctx) // 503 new work, wait for in-flight
//	srv.Shutdown(ctx)
type DrainGate struct {
	draining atomic.Bool
	active   atomic.Int64

	// Logf, when set, observes failures writing the 503 refusal body
	// (a client that vanished mid-drain). Optional — the zero
	// DrainGate stays usable — but a daemon should wire it so no
	// write-path error is silently dropped.
	Logf func(format string, args ...any)
}

// Wrap gates next behind the drain flag and counts its in-flight
// requests.
func (g *DrainGate) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Count first, check second: a request that increments before the
		// flag flips is visible to Drain's wait loop, so it is allowed to
		// finish; one that increments after sees the flag and is refused.
		// Either way no request is both admitted and unwaited-for.
		g.active.Add(1)
		defer g.active.Add(-1)
		if g.draining.Load() {
			w.Header().Set("Retry-After", retryAfterSeconds)
			w.Header().Set("Connection", "close")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			if err := json.NewEncoder(w).Encode(map[string]string{"error": "server draining"}); err != nil && g.Logf != nil {
				g.Logf("drain: writing 503 refusal: %v", err)
			}
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Draining reports whether Drain has been called.
func (g *DrainGate) Draining() bool { return g.draining.Load() }

// Drain flips the gate — from now on new requests get a deterministic
// 503 — and waits until every in-flight request has finished, polling
// rather than blocking so it needs no coordination with the handlers.
// It returns ctx.Err() if the context expires first (in-flight streams
// may legitimately outlast a drain budget; the caller's Shutdown then
// cuts them off).
func (g *DrainGate) Drain(ctx context.Context) error {
	g.draining.Store(true)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if g.active.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// AccessLog wraps next with a one-line access log through logf (e.g.
// log.Printf): "METHOD PATH STATUS DURATION", the status being the one
// the handler wrote (200 if it wrote none). The wrapper forwards Flush,
// so streamed NDJSON responses still leave row by row.
func AccessLog(next http.Handler, logf func(format string, args ...any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		logf("%s %s %d %s", r.Method, r.URL.Path, sw.status, time.Since(start).Truncate(time.Microsecond))
	})
}

// statusWriter records the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the wrapped writer: without it the access log would
// hide http.Flusher from the streaming sweep path and buffer whole
// NDJSON responses.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
