package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/experiments"
	"microfab/internal/platform"
)

// CoordConfig tunes the coordinator's scheduling. The zero value is usable.
type CoordConfig struct {
	// LeaseTTL is how long a chunk stays leased without a heartbeat before
	// it is re-queued for another worker (default 10s). Heartbeats and
	// completions both extend liveness.
	LeaseTTL time.Duration
	// ChunkDraws is the draw-range width of one campaign chunk
	// (default 8). Smaller chunks spread better and re-do less work after
	// a worker death; the merged figure is identical for any width.
	ChunkDraws int
	// Subtrees is the default exact frontier width when the spec leaves
	// it zero (default 32).
	Subtrees int
}

func (c CoordConfig) withDefaults() CoordConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.ChunkDraws <= 0 {
		c.ChunkDraws = 8
	}
	if c.Subtrees <= 0 {
		c.Subtrees = 32
	}
	return c
}

// chunkState is one chunk's scheduling record.
type chunkState struct {
	chunk  Chunk
	done   bool
	leased bool
	owner  string
	expiry time.Time
}

// job is one submitted workload: its immutable chunk set plus the mutable
// scheduling and merge state, all guarded by the coordinator mutex.
type job struct {
	id   int64
	kind string

	// Campaign state: the result matrix chunks fill in.
	spec *CampaignSpec
	plan experiments.Plan
	out  [][]experiments.DrawResult

	// Exact state: instance, rule, frontier and subtree reports.
	ex      *ExactSpec
	in      *core.Instance
	rule    core.Rule
	front   *exact.FrontierInfo
	reports []*exact.SubtreeOutcome

	chunks     map[int64]*chunkState
	pending    []int64 // FIFO of unleased chunk IDs
	remaining  int
	reassigned int
	duplicates int

	// best is the job-wide incumbent period (+Inf until a worker improves
	// on the warm start); traj records its strict improvements.
	best float64
	traj []IncumbentPoint

	done      chan struct{} // closed exactly once, when finished
	notified  bool
	failed    string
	cancelled bool
}

func (j *job) finishedLocked() bool {
	return j.remaining == 0 || j.failed != "" || j.cancelled
}

// workerInfo is one worker's liveness record.
type workerInfo struct {
	lastSeen time.Time
	chunk    int64
}

// Coordinator schedules chunks over leases and merges their results.
// Create with NewCoordinator, serve Handler(), submit blocking jobs with
// SubmitCampaignJob / SubmitExactJob (which the /campaign and /exact
// endpoints wrap).
type Coordinator struct {
	cfg   CoordConfig
	start time.Time

	mu        sync.Mutex
	nextJob   int64
	nextChunk int64
	jobs      map[int64]*job
	order     []int64 // job submission order, for FIFO leasing and /status
	workers   map[string]*workerInfo
}

// NewCoordinator builds a coordinator with cfg (zero value = defaults).
func NewCoordinator(cfg CoordConfig) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		start:   time.Now(),
		jobs:    make(map[int64]*job),
		workers: make(map[string]*workerInfo),
	}
}

func (c *Coordinator) elapsedMs(t time.Time) float64 {
	return float64(t.Sub(c.start)) / float64(time.Millisecond)
}

func (c *Coordinator) touchLocked(name string, now time.Time, chunk int64) {
	if name == "" {
		return
	}
	w := c.workers[name]
	if w == nil {
		w = &workerInfo{chunk: -1}
		c.workers[name] = w
	}
	w.lastSeen = now
	if chunk != 0 {
		w.chunk = chunk
	}
}

func (c *Coordinator) finishLocked(j *job) {
	if !j.notified {
		j.notified = true
		close(j.done)
	}
}

func (c *Coordinator) failLocked(j *job, msg string) {
	if j.failed == "" {
		j.failed = msg
	}
	j.pending = nil
	c.finishLocked(j)
}

// reapLocked re-queues every expired lease of j (lazy expiry: no
// background goroutine — the next lease request does the sweep).
func (c *Coordinator) reapLocked(j *job, now time.Time) {
	for _, cs := range j.chunks {
		if cs.leased && !cs.done && now.After(cs.expiry) {
			cs.leased = false
			cs.owner = ""
			j.reassigned++
			j.pending = append(j.pending, cs.chunk.ID)
		}
	}
}

// lease hands the requesting worker the oldest pending chunk of the oldest
// unfinished job, or nil when nothing is pending right now.
func (c *Coordinator) lease(worker string) *Chunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.touchLocked(worker, now, -1)
	for _, id := range c.order {
		j := c.jobs[id]
		if j.finishedLocked() {
			continue
		}
		c.reapLocked(j, now)
		for len(j.pending) > 0 {
			cid := j.pending[0]
			j.pending = j.pending[1:]
			cs := j.chunks[cid]
			if cs.done || cs.leased {
				continue
			}
			cs.leased = true
			cs.owner = worker
			cs.expiry = now.Add(c.cfg.LeaseTTL)
			ck := cs.chunk
			if j.kind == KindExact && !j.ex.DisableExchange && !math.IsInf(j.best, 1) {
				b := j.best
				ck.Best = &b
			}
			c.touchLocked(worker, now, ck.ID)
			return &ck
		}
	}
	return nil
}

// improveLocked lowers j's incumbent and extends the trajectory.
func (c *Coordinator) improveLocked(j *job, p float64, now time.Time) {
	if p < j.best {
		j.best = p
		j.traj = append(j.traj, IncumbentPoint{AtMs: c.elapsedMs(now), Period: p})
	}
}

// complete stores a chunk's payload. Chunk results are pure functions of
// the chunk ID, so a duplicate completion (a reassigned chunk's loser) is
// bit-identical to the accepted one and is counted, not merged.
func (c *Coordinator) complete(req *CompleteRequest) (*CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.touchLocked(req.Worker, now, -1)
	j, ok := c.jobs[req.Job]
	if !ok {
		return &CompleteResponse{OK: true, Duplicate: true}, nil
	}
	cs, ok := j.chunks[req.Chunk]
	if !ok {
		return nil, fmt.Errorf("unknown chunk %d of job %d", req.Chunk, req.Job)
	}
	if cs.done || j.finishedLocked() {
		j.duplicates++
		return &CompleteResponse{OK: true, Duplicate: true}, nil
	}
	if req.Error != "" {
		// A deterministic chunk failure: re-running a pure function of
		// the chunk ID elsewhere would fail identically, so the job fails.
		c.failLocked(j, fmt.Sprintf("chunk %d: %s", req.Chunk, req.Error))
		return &CompleteResponse{OK: true}, nil
	}
	switch j.kind {
	case KindCampaign:
		if want := cs.chunk.D1 - cs.chunk.D0; len(req.Draws) != want {
			return nil, fmt.Errorf("chunk %d: %d draws reported, want %d", req.Chunk, len(req.Draws), want)
		}
		copy(j.out[cs.chunk.XI][cs.chunk.D0:cs.chunk.D1], req.Draws)
	case KindExact:
		if req.Subtree == nil {
			return nil, fmt.Errorf("chunk %d: exact completion without a subtree report", req.Chunk)
		}
		if req.Subtree.WarmPeriod != j.front.WarmPeriod {
			// The worker derived a different warm start than the
			// coordinator: the processes disagree on the instance and a
			// merge would be silently wrong.
			c.failLocked(j, fmt.Sprintf("chunk %d: warm-start mismatch (worker %v, coordinator %v)",
				req.Chunk, req.Subtree.WarmPeriod, j.front.WarmPeriod))
			return &CompleteResponse{OK: true}, nil
		}
		if err := checkSubtree(j.in, j.rule, req.Subtree); err != nil {
			c.failLocked(j, fmt.Sprintf("chunk %d: invalid subtree report: %v", req.Chunk, err))
			return &CompleteResponse{OK: true}, nil
		}
		j.reports[cs.chunk.XI] = req.Subtree
		if req.Subtree.Found {
			c.improveLocked(j, req.Subtree.Period, now)
		}
	}
	cs.done = true
	cs.leased = false
	cs.owner = ""
	j.remaining--
	if j.remaining == 0 {
		c.finishLocked(j)
	}
	return &CompleteResponse{OK: true}, nil
}

// heartbeat extends the caller's lease and runs the incumbent exchange:
// the worker's best-found period comes up, the job-wide best goes down.
func (c *Coordinator) heartbeat(req *HeartbeatRequest) *HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.touchLocked(req.Worker, now, req.Chunk)
	j, ok := c.jobs[req.Job]
	if !ok || j.finishedLocked() {
		return &HeartbeatResponse{Cancel: true}
	}
	cs, ok := j.chunks[req.Chunk]
	if !ok || cs.done {
		return &HeartbeatResponse{Cancel: true}
	}
	if cs.leased && cs.owner == req.Worker {
		cs.expiry = now.Add(c.cfg.LeaseTTL)
	}
	resp := &HeartbeatResponse{}
	if j.kind == KindExact && !j.ex.DisableExchange {
		if req.Best != nil {
			c.improveLocked(j, *req.Best, now)
		}
		if !math.IsInf(j.best, 1) {
			b := j.best
			resp.Best = &b
		}
	}
	return resp
}

// addJobLocked registers j's chunks and queues them FIFO.
func (c *Coordinator) addJobLocked(j *job, chunks []Chunk) {
	c.nextJob++
	j.id = c.nextJob
	j.best = math.Inf(1)
	j.done = make(chan struct{})
	j.chunks = make(map[int64]*chunkState, len(chunks))
	j.remaining = len(chunks)
	for i := range chunks {
		c.nextChunk++
		chunks[i].ID = c.nextChunk
		chunks[i].Job = j.id
		chunks[i].Kind = j.kind
		j.chunks[chunks[i].ID] = &chunkState{chunk: chunks[i]}
		j.pending = append(j.pending, chunks[i].ID)
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	if j.remaining == 0 {
		c.finishLocked(j) // nothing to lease: a frontier the warm start exhausted
	}
}

// cancelJob marks a job abandoned (its submitter hung up): pending work is
// dropped and heartbeats answer Cancel. Already-computed chunks stay —
// they cost nothing to keep and /status still shows them.
func (c *Coordinator) cancelJob(j *job) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j.cancelled = true
	j.pending = nil
	c.finishLocked(j)
}

// SubmitCampaignJob shards spec's figure campaign into (point, draw-range)
// chunks, waits for the fleet to fill the matrix, and assembles the figure
// through the same reduction a local run uses. Blocks until done, a chunk
// fails deterministically, or ctx ends.
func (c *Coordinator) SubmitCampaignJob(ctx context.Context, spec CampaignSpec) (*experiments.Result, error) {
	cfg := spec.Config()
	plan, err := experiments.FigurePlan(spec.Figure, cfg)
	if err != nil {
		return nil, err
	}
	out := make([][]experiments.DrawResult, len(plan.Xs))
	var chunks []Chunk
	for xi, x := range plan.Xs {
		out[xi] = make([]experiments.DrawResult, plan.Draws)
		for d0 := 0; d0 < plan.Draws; d0 += c.cfg.ChunkDraws {
			d1 := d0 + c.cfg.ChunkDraws
			if d1 > plan.Draws {
				d1 = plan.Draws
			}
			sp := spec
			chunks = append(chunks, Chunk{Spec: &sp, X: x, XI: xi, D0: d0, D1: d1})
		}
	}
	j := &job{kind: KindCampaign, spec: &spec, plan: plan, out: out}
	c.mu.Lock()
	c.addJobLocked(j, chunks)
	c.mu.Unlock()

	select {
	case <-j.done:
	case <-ctx.Done():
		c.cancelJob(j)
		return nil, ctx.Err()
	}
	c.mu.Lock()
	failed := j.failed
	c.mu.Unlock()
	if failed != "" {
		return nil, errors.New(failed)
	}
	return experiments.Assemble(spec.Figure, cfg, out)
}

// SubmitExactJob runs the root split over leases: it enumerates spec's
// frontier locally (exact.Frontier), leases one chunk per subtree prefix to
// workers running exact.SolveSubtree, and reduces their outcomes with
// exact.Merge, so the proof is byte-identical to a local exact.Solve for
// any worker count, chunk placement, or exchange setting. Non-winning
// outcomes may differ run-to-run under exchange (their pruning saw
// different bounds at different times) — the winner never does. Blocks
// until done or ctx ends.
func (c *Coordinator) SubmitExactJob(ctx context.Context, spec ExactSpec) (*ExactResult, error) {
	rule, err := core.ParseRule(spec.Rule)
	if err != nil {
		return nil, err
	}
	in, err := spec.Instance.ToInstance()
	if err != nil {
		return nil, err
	}
	opts := exact.Options{Rule: rule, MaxNodes: spec.MaxNodes, WarmStart: spec.WarmStart}
	target := spec.Subtrees
	if target <= 0 {
		target = c.cfg.Subtrees
	}
	front, err := exact.Frontier(in, opts, target)
	if err != nil {
		return nil, err
	}
	if front.Stopped {
		return nil, errors.New("frontier enumeration exhausted the node budget; raise maxNodes")
	}

	chunks := make([]Chunk, len(front.Prefixes))
	for i, prefix := range front.Prefixes {
		chunks[i] = Chunk{XI: i, Prefix: prefix, WarmPeriod: front.WarmPeriod}
	}
	sp := spec
	j := &job{kind: KindExact, ex: &sp, in: in, rule: rule, front: front, reports: make([]*exact.SubtreeOutcome, len(front.Prefixes))}
	c.mu.Lock()
	c.addJobLocked(j, chunks)
	c.mu.Unlock()

	select {
	case <-j.done:
	case <-ctx.Done():
		c.cancelJob(j)
		return nil, ctx.Err()
	}
	c.mu.Lock()
	failed := j.failed
	reports := j.reports
	c.mu.Unlock()
	if failed != "" {
		return nil, errors.New(failed)
	}
	res, err := exact.Merge(front, reports)
	if err != nil {
		return nil, err
	}
	assign := make([]int, in.N())
	for i := range assign {
		assign[i] = int(res.Mapping.Machine(app.TaskID(i)))
	}
	return &ExactResult{
		Assign:   assign,
		Period:   res.Period,
		Proven:   res.Proven,
		Nodes:    res.Nodes,
		Subtrees: len(front.Prefixes),
	}, nil
}

// checkSubtree confirms a found report against the coordinator's own
// instance before it is merged, so a stale or forged report can neither
// panic the merge nor come back as a proof. The reported period must be
// the assignment's core.Period to the bit: the search's prices are, and
// Merge reports the winner's period as is.
func checkSubtree(in *core.Instance, rule core.Rule, o *exact.SubtreeOutcome) error {
	if !o.Found {
		return nil
	}
	if len(o.Assign) != in.N() {
		return fmt.Errorf("%d tasks assigned, want %d", len(o.Assign), in.N())
	}
	mp := core.NewMapping(in.N())
	for i, u := range o.Assign {
		if u < 0 || u >= in.M() {
			return fmt.Errorf("task %d on machine %d, want [0,%d)", i, u, in.M())
		}
		mp.Assign(app.TaskID(i), platform.MachineID(u))
	}
	if err := mp.CheckRule(in.App, rule); err != nil {
		return err
	}
	if p := core.Period(in, mp); o.Period != p {
		return fmt.Errorf("reported period %v, the assignment prices at %v", o.Period, p)
	}
	return nil
}

// status snapshots the fabric for GET /status.
func (c *Coordinator) status() *StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	resp := &StatusResponse{UptimeMs: c.elapsedMs(now)}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := c.workers[name]
		resp.Workers = append(resp.Workers, WorkerStatus{
			Name:       name,
			LastSeenMs: float64(now.Sub(w.lastSeen)) / float64(time.Millisecond),
			Chunk:      w.chunk,
		})
	}
	for _, id := range c.order {
		j := c.jobs[id]
		js := JobStatus{
			ID:         j.id,
			Kind:       j.kind,
			Chunks:     len(j.chunks),
			Reassigned: j.reassigned,
			Duplicates: j.duplicates,
			Finished:   j.finishedLocked(),
			Incumbent:  append([]IncumbentPoint(nil), j.traj...),
		}
		if j.spec != nil {
			js.Figure = j.spec.Figure
		}
		for _, cs := range j.chunks {
			switch {
			case cs.done:
				js.Done++
			case cs.leased:
				js.Inflight++
			}
		}
		// Pending reflects the actual queue (a cancelled job's queue is
		// drained even though its chunks are neither done nor leased).
		for _, cid := range j.pending {
			if cs := j.chunks[cid]; !cs.done && !cs.leased {
				js.Pending++
			}
		}
		resp.Jobs = append(resp.Jobs, js)
	}
	return resp
}

// ---- HTTP surface ----

// Handler serves the fabric protocol. Mount it at the server root.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/complete", c.handleComplete)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/campaign", c.handleCampaign)
	mux.HandleFunc("/exact", c.handleExact)
	mux.HandleFunc("/job/", c.handleJob)
	mux.HandleFunc("/status", c.handleStatus)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, detail string) {
	writeJSON(w, status, ErrorResponse{Error: code, Detail: detail})
}

// decode parses a POST body into v with the serve daemon's conventions:
// bounded size, strict JSON.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "method-not-allowed", "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad-json", err.Error())
		return false
	}
	return true
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Chunk: c.lease(req.Worker)})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	resp, err := c.complete(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-completion", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, c.heartbeat(&req))
}

func (c *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if !decode(w, r, &spec) {
		return
	}
	res, err := c.SubmitCampaignJob(r.Context(), spec)
	if err != nil {
		if r.Context().Err() != nil {
			return // client hung up; nobody is reading
		}
		writeErr(w, http.StatusUnprocessableEntity, "campaign-failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (c *Coordinator) handleExact(w http.ResponseWriter, r *http.Request) {
	var spec ExactSpec
	if !decode(w, r, &spec) {
		return
	}
	res, err := c.SubmitExactJob(r.Context(), spec)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		writeErr(w, http.StatusUnprocessableEntity, "exact-failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method-not-allowed", "GET only")
		return
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/job/"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-job-id", err.Error())
		return
	}
	c.mu.Lock()
	j, ok := c.jobs[id]
	var resp JobResponse
	if ok {
		resp.Kind = j.kind
		resp.Exact = j.ex
	}
	c.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown-job", fmt.Sprintf("job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method-not-allowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}
