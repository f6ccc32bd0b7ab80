package hanccr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultRouterVNodes is how many virtual ring points each backend
// contributes to the consistent-hash ring. More vnodes smooth the key
// distribution across replicas; 64 keeps the per-key imbalance within
// a few percent for small clusters while the ring stays tiny.
const DefaultRouterVNodes = 64

// DefaultRouterCooldown is how long the router skips a backend after a
// connect failure or an un-hinted 429/503 before probing it again.
// Backends that send Retry-After override it (capped by
// maxRouterCooldown).
const DefaultRouterCooldown = time.Second

// maxRouterCooldown caps what a Retry-After header can impose, so a
// confused backend cannot eject itself from the ring for minutes.
const maxRouterCooldown = 30 * time.Second

// Router is the consistent-hash front of a replica fleet (cmd/
// hanccr-lb). Scenario-addressed requests (/v1/plan, /v1/estimate,
// /v1/simulate) hash the canonical Scenario.Key — computed from the
// request body exactly the way the replica handlers compute it — onto
// the ring, so every distinct scenario has one home replica and is
// planned once cluster-wide; repeats of the same scenario are cache
// hits on that home no matter which client sent them. Everything else
// (batch, sweep, stats) rotates round-robin: grids and batches are not
// single scenarios, and every replica answers them byte-identically.
//
// A backend that refuses (429/503) or cannot be reached fails the
// request over to the next replica in ring order and sits out a
// cooldown (Retry-After honored, capped); responses are deterministic
// functions of the request, so the failover answer is byte-identical
// to the one the home replica would have given — the cost is one
// duplicated plan, not a wrong answer.
//
// The router serves its own GET /healthz (liveness plus per-backend
// summaries) and GET /v1/lb/stats; it never proxies those paths.
type Router struct {
	backends []*routerBackend
	ring     []ringPoint
	client   *http.Client // no global timeout: proxied sweep streams are long-lived
	logf     func(format string, args ...any)
	cooldown time.Duration
	now      func() time.Time // test seam
	rr       atomic.Uint64    // round-robin cursor for non-scenario paths
}

// routerBackend is one replica plus its health/traffic accounting.
type routerBackend struct {
	url       string // normalized: scheme://host[:port], no trailing slash
	forwarded atomic.Uint64
	retried   atomic.Uint64 // responses that made the router move on (429/503)
	errors    atomic.Uint64 // transport/connect failures
	coolUntil atomic.Int64  // unix nanos; 0 = healthy
}

// ringPoint is one virtual node: the hash owns every key in the arc
// ending at it.
type ringPoint struct {
	hash uint64
	idx  int // index into Router.backends
}

// BackendStats is one backend's row in RouterStats / the router's
// /healthz body.
type BackendStats struct {
	URL       string `json:"url"`
	Forwarded uint64 `json:"forwarded"`
	Retried   uint64 `json:"retried"`
	Errors    uint64 `json:"errors"`
	Cooling   bool   `json:"cooling"`
}

// RouterStats is the body of GET /v1/lb/stats.
type RouterStats struct {
	Backends []BackendStats `json:"backends"`
}

// RouterOption configures NewRouter.
type RouterOption func(*routerConfig)

type routerConfig struct {
	vnodes   int
	cooldown time.Duration
	logf     func(format string, args ...any)
}

// WithRouterVNodes sets the virtual-node count per backend (default
// DefaultRouterVNodes, minimum 1).
func WithRouterVNodes(n int) RouterOption {
	return func(c *routerConfig) {
		if n > 0 {
			c.vnodes = n
		}
	}
}

// WithRouterCooldown sets how long a failed backend sits out before
// the router probes it again (default DefaultRouterCooldown).
func WithRouterCooldown(d time.Duration) RouterOption {
	return func(c *routerConfig) {
		if d > 0 {
			c.cooldown = d
		}
	}
}

// WithRouterLogf routes router diagnostics (failovers, transport
// errors) to logf. The default discards them.
func WithRouterLogf(logf func(format string, args ...any)) RouterOption {
	return func(c *routerConfig) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// NewRouter builds the consistent-hash router over the given backend
// base URLs (e.g. "http://10.0.0.2:8080").
func NewRouter(backends []string, opts ...RouterOption) (*Router, error) {
	cfg := routerConfig{
		vnodes:   DefaultRouterVNodes,
		cooldown: DefaultRouterCooldown,
		logf:     func(string, ...any) {},
	}
	for _, o := range opts {
		o(&cfg)
	}
	seen := make(map[string]bool)
	var bks []*routerBackend
	for _, raw := range backends {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("router backend %q: want an http(s) URL", raw)
		}
		if seen[u] {
			return nil, fmt.Errorf("router backend %q listed twice", u)
		}
		seen[u] = true
		bks = append(bks, &routerBackend{url: u})
	}
	if len(bks) == 0 {
		return nil, fmt.Errorf("router needs at least one backend")
	}
	r := &Router{
		backends: bks,
		client:   &http.Client{},
		logf:     cfg.logf,
		cooldown: cfg.cooldown,
		now:      time.Now,
	}
	r.ring = make([]ringPoint, 0, len(bks)*cfg.vnodes)
	for i, b := range bks {
		for v := 0; v < cfg.vnodes; v++ {
			r.ring = append(r.ring, ringPoint{hash: fnv64a(b.url + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(r.ring, func(a, b int) bool { return r.ring[a].hash < r.ring[b].hash })
	return r, nil
}

// fnv64a is the 64-bit FNV-1a the ring and key hashing share. The
// scenario key is already a uniform SHA-256 digest, so any stable
// mixing spreads keys evenly over the ring arcs.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// candidatesForKey returns every backend index in ring order starting
// at the key's home arc — the failover sequence. Deterministic: the
// same key always yields the same order while the backend set is
// unchanged, which is what makes cache keys sticky to replicas.
func (r *Router) candidatesForKey(key string) []int {
	h := fnv64a(key)
	start := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	order := make([]int, 0, len(r.backends))
	seen := make(map[int]bool, len(r.backends))
	for i := 0; i < len(r.ring) && len(order) < len(r.backends); i++ {
		p := r.ring[(start+i)%len(r.ring)]
		if !seen[p.idx] {
			seen[p.idx] = true
			order = append(order, p.idx)
		}
	}
	return order
}

// candidatesRoundRobin rotates through the backends for requests that
// are not scenario-addressed.
func (r *Router) candidatesRoundRobin() []int {
	start := int(r.rr.Add(1)-1) % len(r.backends)
	order := make([]int, 0, len(r.backends))
	for i := 0; i < len(r.backends); i++ {
		order = append(order, (start+i)%len(r.backends))
	}
	return order
}

func (r *Router) cooling(b *routerBackend) bool {
	return b.coolUntil.Load() > r.now().UnixNano()
}

// cool benches a backend. retryAfter is the backend's own hint in
// seconds ("" = none → the router default), capped so a bad header
// cannot bench a replica for minutes.
func (r *Router) cool(b *routerBackend, retryAfter string) {
	d := r.cooldown
	if retryAfter != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
			d = time.Duration(secs) * time.Second
			if d > maxRouterCooldown {
				d = maxRouterCooldown
			}
		}
	}
	b.coolUntil.Store(r.now().Add(d).UnixNano())
}

// Stats snapshots the per-backend counters.
func (r *Router) Stats() RouterStats {
	st := RouterStats{Backends: make([]BackendStats, len(r.backends))}
	for i, b := range r.backends {
		st.Backends[i] = BackendStats{
			URL:       b.url,
			Forwarded: b.forwarded.Load(),
			Retried:   b.retried.Load(),
			Errors:    b.errors.Load(),
			Cooling:   r.cooling(b),
		}
	}
	return st
}

// routerHealth is the body of the router's own GET /healthz.
type routerHealth struct {
	Status   string         `json:"status"`
	Backends []BackendStats `json:"backends"`
}

func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	switch req.URL.Path {
	case "/healthz":
		if !r.requireGet(w, req) {
			return
		}
		r.writeJSON(w, req, http.StatusOK, routerHealth{Status: "ok", Backends: r.Stats().Backends})
		return
	case "/v1/lb/stats":
		if !r.requireGet(w, req) {
			return
		}
		r.writeJSON(w, req, http.StatusOK, r.Stats())
		return
	}
	r.proxy(w, req)
}

func (r *Router) requireGet(w http.ResponseWriter, req *http.Request) bool {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		r.writeJSON(w, req, http.StatusMethodNotAllowed, map[string]string{"error": "use GET"})
		return false
	}
	return true
}

// writeJSON emits a router-originated JSON response. An encode
// failure means the client hung up mid-error; nothing can be resent,
// but the failure is logged — the router's own error responses must
// never vanish silently (the discarderr invariant).
func (r *Router) writeJSON(w http.ResponseWriter, req *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		r.logf("lb: %s %s: writing %d response: %v", req.Method, req.URL.Path, status, err)
	}
}

// proxy routes one request: pick the candidate order (key-affine for
// scenario endpoints, round-robin otherwise), then walk it — skipping
// cooling backends while any non-cooling candidate remains — until a
// backend answers with something other than 429/503 or the candidates
// run out. The request body is buffered once up front, so a failover
// replays identical bytes.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request) {
	body, status, err := readBody(req)
	if err != nil {
		r.writeJSON(w, req, status, map[string]string{"error": err.Error()})
		return
	}

	order := r.candidatesRoundRobin()
	if _, ok := jobPaths[req.URL.Path]; ok && req.Method == http.MethodPost {
		var jreq BatchJobRequest
		if jerr := decodeBody(body, &jreq); jerr == nil {
			// Hash the body the way the replica handlers do: wire request →
			// Scenario → canonical key. A body the router cannot parse falls
			// back to round-robin and lets the replica produce its 400.
			order = r.candidatesForKey(jreq.Scenario().Key())
		}
	}

	// Partition the candidates into healthy-first: cooling backends are
	// only tried once every healthy one has refused.
	var healthy, benched []int
	for _, idx := range order {
		if r.cooling(r.backends[idx]) {
			benched = append(benched, idx)
		} else {
			healthy = append(healthy, idx)
		}
	}
	candidates := append(healthy, benched...)

	var lastResp *http.Response
	var chosen *routerBackend
	for n, idx := range candidates {
		b := r.backends[idx]
		out, err := http.NewRequestWithContext(req.Context(), req.Method, b.url+req.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			r.writeJSON(w, req, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		copyProxyHeaders(out.Header, req.Header)
		resp, err := r.client.Do(out)
		if err != nil {
			// Connect/transport failure: bench the backend and move on —
			// unless the CLIENT is gone, in which case there is nobody to
			// fail over for.
			b.errors.Add(1)
			r.cool(b, "")
			if req.Context().Err() != nil {
				r.logf("lb: %s %s: client disconnected: %v", req.Method, req.URL.Path, err)
				w.WriteHeader(statusClientClosedRequest)
				return
			}
			r.logf("lb: %s %s: backend %s unreachable (%v), failing over", req.Method, req.URL.Path, b.url, err)
			continue
		}
		if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && n < len(candidates)-1 {
			// The backend refused (admission gate, drain); it never ran the
			// request, so replaying it on the next replica is safe. Honor
			// its Retry-After before probing it again.
			b.retried.Add(1)
			r.cool(b, resp.Header.Get("Retry-After"))
			r.logf("lb: %s %s: backend %s answered %d, failing over", req.Method, req.URL.Path, b.url, resp.StatusCode)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //hanccr:allow discarderr best-effort bounded drain so the refused connection can be reused for the next failover
			resp.Body.Close()
			continue
		}
		lastResp, chosen = resp, b
		break
	}
	if lastResp == nil {
		r.writeJSON(w, req, http.StatusBadGateway, map[string]string{
			"error": fmt.Sprintf("no backend reachable for %s %s (%d tried)", req.Method, req.URL.Path, len(candidates)),
		})
		return
	}
	defer lastResp.Body.Close()
	chosen.forwarded.Add(1)

	h := w.Header()
	for _, k := range []string{"Content-Type", "X-Cache", "Retry-After", "Allow", "Connection"} {
		if v := lastResp.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	h.Set("X-Backend", chosen.url)
	w.WriteHeader(lastResp.StatusCode)
	if err := copyFlush(w, lastResp.Body); err != nil {
		r.logf("lb: %s %s: relaying response: %v", req.Method, req.URL.Path, err)
	}
}

// copyProxyHeaders forwards the request headers that change the
// replica's answer or its encoding; hop-by-hop headers stay behind.
func copyProxyHeaders(dst, src http.Header) {
	for _, k := range []string{"Content-Type", "Accept", "Accept-Encoding"} {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
}

// copyFlush streams src to w, flushing after every chunk so proxied
// NDJSON sweeps keep their per-row delivery through the router.
func copyFlush(w http.ResponseWriter, src io.Reader) error {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return werr
			}
			if f != nil {
				f.Flush()
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}
