// Package serve implements mapping-as-a-service: a long-lived daemon that
// accepts problem instances over HTTP/JSON, solves them on a bounded
// worker pool, and answers repeat (and isomorphic-repeat) requests from a
// canonical-hash solution cache without solving at all.
//
// The request path is built for thousands of small solves per second:
//
//   - the cache key is the canonical instance digest (hash.go), so two
//     requests that differ only by task/type relabeling or a machine
//     permutation share one entry, and a hit costs one canonicalisation +
//     one map lookup — zero heap allocations on the steady state;
//   - pricing engines are recycled through per-(n, m) sync.Pools and
//     repointed at each request's instance via Rebind (pool.go);
//   - admission control rejects malformed or oversized requests with
//     typed error codes before any work queues, and the queue itself is
//     bounded (429 when full) — the same backpressure discipline as the
//     experiment campaign's worker pool;
//   - request contexts propagate into the exact solver's node loop, so a
//     disconnected client stops burning CPU within one node batch per
//     worker;
//   - every completed solve lands in a lock-free latency histogram
//     exposed on /stats next to the cache hit/miss counters.
//
// Endpoints: POST /solve (set "stream": true for incumbent-streaming
// JSON lines), POST /solve/batch (many instances, one round trip, per-item
// results in order), POST /evaluate, GET /stats, GET /healthz.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	microfab "microfab"
	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/instance"
	"microfab/internal/platform"
)

// Config sizes the daemon. The zero value serves with sane defaults.
type Config struct {
	// Workers is the solve worker-pool size (0 = GOMAXPROCS). Negative
	// starts no workers at all — every cache miss queues until rejected —
	// which is how the admission tests isolate the request path from the
	// solvers.
	Workers int
	// QueueDepth bounds the pending-job queue (0 = 4x workers, min 16).
	// A full queue answers 429 instead of queueing unboundedly.
	QueueDepth int
	// CacheSize bounds the solution LRU in entries (0 = 1024).
	CacheSize int
	// MaxNodes is both the default and the cap for a request's exact-search
	// node budget (0 = 2 million). Requests asking for more are rejected,
	// not clamped: the client should know its answer will be cheaper than
	// it asked for.
	MaxNodes int64
	// MaxTime is the default and cap for a request's wall-clock budget
	// (0 = 10s).
	MaxTime time.Duration
	// MaxTasks caps the instance size (0 = 512 tasks).
	MaxTasks int
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
		if c.QueueDepth < 16 {
			c.QueueDepth = 16
		}
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 2_000_000
	}
	if c.MaxTime <= 0 {
		c.MaxTime = 10 * time.Second
	}
	if c.MaxTasks <= 0 {
		c.MaxTasks = 512
	}
	return c
}

// SolveRequest is the POST /solve body. Budgets and Workers apply to the
// "exact" solver; Seed to the seeded solvers ("H1", "anneal").
type SolveRequest struct {
	Instance instance.File `json:"instance"`
	// Solver is any name microfab.Solve accepts (default "exact").
	Solver string `json:"solver,omitempty"`
	// Rule is "specialized" (default), "one-to-one" or "general"; only
	// the exact solver honors a non-default rule.
	Rule        string `json:"rule,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	MaxNodes    int64  `json:"maxNodes,omitempty"`
	TimeLimitMs int64  `json:"timeLimitMs,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	// Stream switches the response to JSON lines: one "incumbent" line
	// per improvement found, then the final "result" line.
	Stream bool `json:"stream,omitempty"`
	// NoCache bypasses the solution cache in both directions.
	NoCache bool `json:"noCache,omitempty"`
}

// SolveResponse is the POST /solve result (also the "result" stream line).
type SolveResponse struct {
	Type   string `json:"type,omitempty"` // "result" on stream lines
	Solver string `json:"solver"`
	// Assign[i] is the machine index of task i, in the request's labels.
	Assign     []int   `json:"assign"`
	Period     float64 `json:"period"`
	Throughput float64 `json:"throughput"`
	// Proven is present for exact-family solves only.
	Proven    *bool   `json:"proven,omitempty"`
	Nodes     int64   `json:"nodes,omitempty"`
	Cached    bool    `json:"cached"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// IncumbentLine is one streamed improvement.
type IncumbentLine struct {
	Type      string  `json:"type"` // "incumbent"
	Period    float64 `json:"period"`
	Assign    []int   `json:"assign"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// ErrorResponse carries a stable machine-readable code plus a human
// detail string.
type ErrorResponse struct {
	Type   string `json:"type,omitempty"` // "error" on stream lines
	Error  string `json:"error"`
	Detail string `json:"detail,omitempty"`
}

// EvaluateRequest is the POST /evaluate body: price a complete mapping
// without solving.
type EvaluateRequest struct {
	Instance instance.File `json:"instance"`
	Assign   []int         `json:"assign"`
}

// EvaluateResponse is the POST /evaluate result.
type EvaluateResponse struct {
	Period         float64   `json:"period"`
	Throughput     float64   `json:"throughput"`
	Critical       int       `json:"critical"`
	MachinePeriods []float64 `json:"machinePeriods"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	UptimeMs     float64         `json:"uptimeMs"`
	Workers      int             `json:"workers"`
	QueueLen     int             `json:"queueLen"`
	Requests     int64           `json:"requests"`
	Rejected     int64           `json:"rejected"`
	Solved       int64           `json:"solved"`
	SolveErrors  int64           `json:"solveErrors"`
	Inflight     int64           `json:"inflight"`
	CacheHits    int64           `json:"cacheHits"`
	CacheMisses  int64           `json:"cacheMisses"`
	CacheEntries int             `json:"cacheEntries"`
	Latency      LatencySnapshot `json:"latency"`
}

// Server is the solve daemon. Create with NewServer, mount Handler on any
// http.Server, Close to drain.
type Server struct {
	cfg    Config
	cache  *solutionCache
	pools  *enginePools
	hist   latencyHist
	stats  serverStats
	known  map[string]bool // registered solver names
	mux    *http.ServeMux
	start  time.Time
	jobs   chan *job
	wg     sync.WaitGroup
	mu     sync.RWMutex // guards closed vs. enqueue
	closed bool
}

type serverStats struct {
	requests    atomic.Int64
	rejected    atomic.Int64
	solved      atomic.Int64
	solveErrors atomic.Int64
	inflight    atomic.Int64
}

// NewServer starts the worker pool and returns the daemon.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newSolutionCache(cfg.CacheSize),
		pools: newEnginePools(),
		known: map[string]bool{"mip": true},
		start: time.Now(),
		jobs:  make(chan *job, cfg.QueueDepth),
	}
	for _, name := range microfab.Solvers() {
		s.known[name] = true
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/solve/batch", s.handleBatch)
	s.mux.HandleFunc("/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	workers := cfg.Workers
	if workers < 0 {
		workers = 0
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP mux of the daemon's endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops accepting jobs and waits for in-flight solves to finish.
// In-flight HTTP requests racing Close get 429s, never a panic.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.wg.Wait()
}

// parsedReq is an admitted solve request: validated, defaulted, with the
// instance built.
type parsedReq struct {
	in        *core.Instance
	solver    string
	rule      core.Rule
	seed      int64
	maxNodes  int64
	timeLimit time.Duration
	workers   int
	stream    bool
	noCache   bool
}

// key builds the cache key for this request over the canonical digest.
// Budget and worker count only key exact-family solves (a budget-stopped
// incumbent depends on both); the other solvers are budget-free.
func (p *parsedReq) key(digest [32]byte) cacheKey {
	k := cacheKey{digest: digest, solver: p.solver, rule: p.rule, seed: p.seed}
	if p.solver == "exact" {
		k.maxNodes = p.maxNodes
		k.workers = int32(p.workers)
	}
	return k
}

type httpErr struct {
	status int
	code   string
	detail string
}

// admit validates and defaults a request. Every rejection is typed: the
// body carries a stable "error" code a client can switch on.
func (s *Server) admit(req *SolveRequest) (parsedReq, *httpErr) {
	var p parsedReq
	in, err := req.Instance.ToInstance()
	if err != nil {
		return p, &httpErr{http.StatusBadRequest, "bad-instance", err.Error()}
	}
	if in.N() > s.cfg.MaxTasks {
		return p, &httpErr{http.StatusBadRequest, "too-large",
			fmt.Sprintf("%d tasks exceeds the server cap of %d", in.N(), s.cfg.MaxTasks)}
	}
	p.in = in
	p.solver = req.Solver
	if p.solver == "" {
		p.solver = "exact"
	}
	if p.solver == "mip" {
		p.solver = "MIP" // fold the facade alias so both share cache entries
	}
	if !s.known[p.solver] {
		return p, &httpErr{http.StatusBadRequest, "unknown-solver",
			fmt.Sprintf("%v %q (have %v)", microfab.ErrUnknownSolver, req.Solver, microfab.Solvers())}
	}
	rule, err := core.ParseRule(req.Rule)
	if err != nil {
		return p, &httpErr{http.StatusBadRequest, "bad-rule", err.Error()}
	}
	p.rule = rule
	if p.rule != core.Specialized && p.solver != "exact" {
		return p, &httpErr{http.StatusBadRequest, "bad-rule",
			fmt.Sprintf("solver %q only serves the specialized rule; use \"exact\" for %q", p.solver, req.Rule)}
	}
	if req.MaxNodes < 0 || req.TimeLimitMs < 0 || req.Workers < 0 {
		return p, &httpErr{http.StatusBadRequest, "bad-budget",
			fmt.Sprintf("%v: maxNodes=%d timeLimitMs=%d workers=%d", microfab.ErrBadBudget,
				req.MaxNodes, req.TimeLimitMs, req.Workers)}
	}
	p.maxNodes = req.MaxNodes
	if p.maxNodes == 0 {
		p.maxNodes = s.cfg.MaxNodes
	} else if p.maxNodes > s.cfg.MaxNodes {
		return p, &httpErr{http.StatusBadRequest, "budget-too-large",
			fmt.Sprintf("maxNodes %d exceeds the server cap of %d", p.maxNodes, s.cfg.MaxNodes)}
	}
	p.timeLimit = time.Duration(req.TimeLimitMs) * time.Millisecond
	if p.timeLimit == 0 {
		p.timeLimit = s.cfg.MaxTime
	} else if p.timeLimit > s.cfg.MaxTime {
		return p, &httpErr{http.StatusBadRequest, "budget-too-large",
			fmt.Sprintf("timeLimitMs %d exceeds the server cap of %dms", req.TimeLimitMs, s.cfg.MaxTime.Milliseconds())}
	}
	p.workers = req.Workers
	if p.workers == 0 {
		p.workers = 1
	}
	if max := runtime.GOMAXPROCS(0); p.workers > max {
		p.workers = max
	}
	p.seed = req.Seed
	p.stream = req.Stream
	p.noCache = req.NoCache
	return p, nil
}

// lookup answers a request from the cache: canonicalise, probe, and on a
// hit translate the canonical-space assignment into the request's own
// task/machine labels. Zero heap allocations on the steady state — the
// canonicalizer is pooled and resp.Assign is reused when its capacity
// allows — which is what keeps the hit path at memory-bandwidth speed
// under load (pinned by TestCacheHitZeroAlloc).
func (s *Server) lookup(p *parsedReq, resp *SolveResponse) bool {
	c := canonPool.Get().(*canonicalizer)
	digest := c.canonicalize(p.in)
	e := s.cache.get(p.key(digest))
	if e == nil {
		canonPool.Put(c)
		return false
	}
	n := len(e.canonAssign)
	if cap(resp.Assign) < n {
		resp.Assign = make([]int, n)
	}
	resp.Assign = resp.Assign[:n]
	c.decodeAssign(e.canonAssign, resp.Assign)
	canonPool.Put(c)
	resp.Solver = e.solver
	resp.Period = e.period
	resp.Throughput = 1 / e.period
	if e.hasProven {
		resp.Proven = &e.proven
	} else {
		resp.Proven = nil
	}
	resp.Nodes = e.nodes
	resp.Cached = true
	return true
}

// job is one queued solve.
type job struct {
	ctx        context.Context
	p          parsedReq
	start      time.Time
	incumbents chan IncumbentLine // nil unless streaming
	done       chan solveOutcome  // buffered 1: the worker never blocks
}

type solveOutcome struct {
	mapping   *core.Mapping
	period    float64
	nodes     int64
	proven    bool
	provenSet bool
	err       error
	status    int
	code      string
}

// enqueue offers the job to the worker pool without blocking. False means
// the queue is full or the server is closing — the caller answers 429.
func (s *Server) enqueue(j *job) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	select {
	case s.jobs <- j:
		return true
	default:
		return false
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.stats.inflight.Add(1)
		res := s.runJob(j)
		s.stats.inflight.Add(-1)
		if res.err != nil {
			s.stats.solveErrors.Add(1)
		} else {
			s.stats.solved.Add(1)
		}
		if j.incumbents != nil {
			close(j.incumbents) // the solver returned; no more callbacks
		}
		j.done <- res
	}
}

// runJob solves one admitted request and stores the result in the cache
// when it is reproducible (see cacheable).
func (s *Server) runJob(j *job) solveOutcome {
	p := &j.p
	if j.ctx != nil && j.ctx.Err() != nil {
		return solveOutcome{err: j.ctx.Err(), status: http.StatusRequestTimeout, code: "cancelled"}
	}
	var out solveOutcome
	if p.solver == "exact" {
		var cb func(float64, *core.Mapping)
		if j.incumbents != nil {
			ch, start := j.incumbents, j.start
			cb = func(per float64, m *core.Mapping) {
				line := IncumbentLine{
					Type: "incumbent", Period: per, Assign: assignInts(m),
					ElapsedMs: float64(time.Since(start).Microseconds()) / 1e3,
				}
				select { // never block the solver on a slow client
				case ch <- line:
				default:
				}
			}
		}
		res, err := exact.Solve(p.in, exact.Options{
			Rule: p.rule, Ctx: j.ctx, OnImprove: cb,
			MaxNodes: p.maxNodes, TimeLimit: p.timeLimit,
			Workers: p.workers, WarmStart: true,
		})
		if err != nil {
			return classify(err)
		}
		out = solveOutcome{
			mapping: res.Mapping, period: res.Period, nodes: res.Nodes,
			proven: res.Proven, provenSet: true,
		}
	} else {
		mp, err := microfab.Solve(p.in, p.solver, p.seed)
		if err != nil {
			return classify(err)
		}
		period, err := s.price(p.in, mp)
		if err != nil {
			return classify(err)
		}
		out = solveOutcome{mapping: mp, period: period}
	}
	if !p.noCache && cacheable(p, &out) {
		s.store(p, &out)
	}
	return out
}

// price computes the period of a complete mapping through a pooled Pricer
// (root-first assignment over the reverse-topological order).
func (s *Server) price(in *core.Instance, mp *core.Mapping) (float64, error) {
	pr := s.pools.pricer(in)
	for _, i := range in.App.ReverseTopological() {
		if err := pr.Assign(i, mp.Machine(i)); err != nil {
			s.pools.putPricer(pr)
			return 0, err
		}
	}
	period := pr.Max()
	s.pools.putPricer(pr)
	return period, nil
}

// cacheable reports whether the outcome is reproducible enough to serve
// to a future isomorphic request: everything except a wall-clock-stopped
// exact incumbent (timing-dependent; a node-budget stop is keyed by its
// budget and worker count and kept).
func cacheable(p *parsedReq, out *solveOutcome) bool {
	if !out.provenSet {
		return true
	}
	return out.proven || out.nodes >= p.maxNodes
}

// store writes the outcome into the cache in canonical space.
func (s *Server) store(p *parsedReq, out *solveOutcome) {
	c := canonPool.Get().(*canonicalizer)
	digest := c.canonicalize(p.in)
	e := &cacheEntry{
		canonAssign: make([]int32, p.in.N()),
		period:      out.period,
		proven:      out.proven,
		hasProven:   out.provenSet,
		nodes:       out.nodes,
		solver:      p.solver,
	}
	c.encodeMapping(out.mapping, e.canonAssign)
	s.cache.put(p.key(digest), e)
	canonPool.Put(c)
}

// classify maps a solver error to its transport form via the facade's
// typed errors.
func classify(err error) solveOutcome {
	out := solveOutcome{err: err, status: http.StatusUnprocessableEntity, code: "solve-failed"}
	switch {
	case errors.Is(err, microfab.ErrBadBudget):
		out.status, out.code = http.StatusBadRequest, "bad-budget"
	case errors.Is(err, microfab.ErrBudgetExhausted):
		out.code = "budget-exhausted"
	case errors.Is(err, microfab.ErrInfeasible):
		out.code = "infeasible"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		out.status, out.code = http.StatusRequestTimeout, "cancelled"
	}
	return out
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "method-not-allowed", "POST a SolveRequest")
		return
	}
	s.stats.requests.Add(1)
	t0 := time.Now()
	var req SolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	p, herr := s.admit(&req)
	if herr != nil {
		writeErr(w, herr.status, herr.code, herr.detail)
		return
	}
	if !p.noCache {
		var resp SolveResponse
		if s.lookup(&p, &resp) {
			resp.ElapsedMs = elapsedMs(t0)
			s.hist.observe(time.Since(t0))
			if p.stream {
				resp.Type = "result"
			}
			writeJSON(w, http.StatusOK, &resp)
			return
		}
	}
	j := &job{ctx: r.Context(), p: p, start: t0, done: make(chan solveOutcome, 1)}
	if p.stream {
		j.incumbents = make(chan IncumbentLine, 32)
	}
	if !s.enqueue(j) {
		s.stats.rejected.Add(1)
		writeErr(w, http.StatusTooManyRequests, "overloaded", "solve queue full; retry later")
		return
	}
	if p.stream {
		s.streamSolve(w, j, t0)
		return
	}
	select {
	case out := <-j.done:
		s.writeOutcome(w, &j.p, &out, t0)
	case <-r.Context().Done():
		// Client gone: the context reaches the solver's node loop, the
		// worker drops the outcome into the buffered done channel, and
		// there is nobody left to write to.
	}
}

// streamSolve writes JSON lines: incumbents as they are found, then the
// final result (or error) line.
func (s *Server) streamSolve(w http.ResponseWriter, j *job, t0 time.Time) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for line := range j.incumbents {
		if enc.Encode(line) == nil && flusher != nil {
			flusher.Flush()
		}
	}
	out := <-j.done
	if out.err != nil {
		enc.Encode(ErrorResponse{Type: "error", Error: out.code, Detail: out.err.Error()})
		return
	}
	resp := s.buildResponse(&j.p, &out, t0)
	resp.Type = "result"
	enc.Encode(resp)
	s.hist.observe(time.Since(t0))
}

func (s *Server) writeOutcome(w http.ResponseWriter, p *parsedReq, out *solveOutcome, t0 time.Time) {
	if out.err != nil {
		writeErr(w, out.status, out.code, out.err.Error())
		return
	}
	resp := s.buildResponse(p, out, t0)
	s.hist.observe(time.Since(t0))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) buildResponse(p *parsedReq, out *solveOutcome, t0 time.Time) *SolveResponse {
	resp := &SolveResponse{
		Solver:     p.solver,
		Assign:     assignInts(out.mapping),
		Period:     out.period,
		Throughput: 1 / out.period,
		Nodes:      out.nodes,
		ElapsedMs:  elapsedMs(t0),
	}
	if out.provenSet {
		resp.Proven = &out.proven
	}
	return resp
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "method-not-allowed", "POST an EvaluateRequest")
		return
	}
	var req EvaluateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	in, err := req.Instance.ToInstance()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-instance", err.Error())
		return
	}
	if len(req.Assign) != in.N() {
		writeErr(w, http.StatusBadRequest, "bad-mapping",
			fmt.Sprintf("assign has %d entries, instance has %d tasks", len(req.Assign), in.N()))
		return
	}
	for i, u := range req.Assign {
		if u < 0 || u >= in.M() {
			writeErr(w, http.StatusBadRequest, "bad-mapping",
				fmt.Sprintf("task %d mapped to machine %d, platform has %d", i, u, in.M()))
			return
		}
	}
	e := s.pools.evaluator(in)
	for i, u := range req.Assign {
		if err := e.Assign(app.TaskID(i), platform.MachineID(u)); err != nil {
			s.pools.putEvaluator(e)
			writeErr(w, http.StatusBadRequest, "bad-mapping", err.Error())
			return
		}
	}
	period, critical := e.Best()
	resp := EvaluateResponse{
		Period:         period,
		Throughput:     1 / period,
		Critical:       int(critical),
		MachinePeriods: e.MachinePeriods(),
	}
	s.pools.putEvaluator(e)
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeMs:     elapsedMs(s.start),
		Workers:      s.cfg.Workers,
		QueueLen:     len(s.jobs),
		Requests:     s.stats.requests.Load(),
		Rejected:     s.stats.rejected.Load(),
		Solved:       s.stats.solved.Load(),
		SolveErrors:  s.stats.solveErrors.Load(),
		Inflight:     s.stats.inflight.Load(),
		CacheHits:    s.cache.hits.Load(),
		CacheMisses:  s.cache.misses.Load(),
		CacheEntries: s.cache.len(),
		Latency:      s.hist.snapshot(),
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

func assignInts(m *core.Mapping) []int {
	out := make([]int, m.Len())
	for i := range out {
		out[i] = int(m.Machine(app.TaskID(i)))
	}
	return out
}

func elapsedMs(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1e3
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, detail string) {
	writeJSON(w, status, &ErrorResponse{Error: code, Detail: detail})
}
