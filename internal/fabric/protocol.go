// Package fabric is the distributed solve fabric: a coordinator process
// (cmd/mfcoord) that splits shardable workloads into chunks and a fleet of
// worker processes (cmd/mfworker) that lease, compute and report them over
// HTTP/JSON. Two workloads shard today:
//
//   - campaign scale-out: a figure campaign's (point, draw) grid splits
//     into (point, draw-range) chunks. Every draw derives its RNG streams
//     from (seed, figure, point, draw) via gen.DeriveRNG, so its values
//     are placement-independent, and the coordinator assembles chunk
//     payloads back into the item matrix and reduces it with the exact
//     code path a local run uses (internal/experiments.Assemble) — the
//     merged figure is byte-identical to a single-process run for any
//     worker count, chunk size or failure history;
//   - exact scale-out: the exact solver's parallel root split run over
//     leases. The coordinator enumerates the root frontier once
//     (exact.Frontier) and leases one subtree prefix per chunk; workers
//     re-derive the same warm start, explore their subtree with
//     exact.SolveSubtree and adopt the fabric-wide best incumbent as a
//     strict pruning bound through the periodic heartbeat exchange
//     (exact.Options.BoundInjector); the coordinator reduces the
//     outcomes with exact.Merge, the call an in-process parallel solve
//     makes — node counts shrink, proofs stay byte-identical, exchange
//     on or off.
//
// Failure semantics: chunks are leased, not assigned. A worker that stops
// heartbeating loses its lease after the TTL and the chunk is re-leased to
// the next worker that asks; because every chunk's payload is a pure
// function of its ID, a late duplicate completion is bit-identical to the
// accepted one, so the coordinator keeps the first and counts the rest —
// no chunk is lost or double-merged. Transport errors on the worker side
// are retried with bounded exponential backoff; SIGTERM drains a worker
// (finish and report the current chunk, lease no more).
package fabric

import (
	"time"

	"microfab/internal/exact"
	"microfab/internal/experiments"
	"microfab/internal/instance"
	"microfab/internal/platform"
)

// Job kinds.
const (
	KindCampaign = "campaign"
	KindExact    = "exact"
)

// CampaignSpec is the serializable form of one figure campaign — the
// subset of experiments.Config a remote worker needs to reproduce a draw
// bit-exactly, plus the figure number. POST it to /campaign. Unknown JSON
// fields are ignored, so older specs carrying the removed relaxation-tier
// and incremental-bound ablations (which never changed results) still
// decode and run.
type CampaignSpec struct {
	Figure         int    `json:"figure"`
	Draws          int    `json:"draws,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	Thin           int    `json:"thin,omitempty"`
	MIPTimeLimitMs int64  `json:"mipTimeLimitMs,omitempty"`
	MIPMaxNodes    int    `json:"mipMaxNodes,omitempty"`
	ExactWorkers   int    `json:"exactWorkers,omitempty"`
	Polish         string `json:"polish,omitempty"`
	PolishBudget   int    `json:"polishBudget,omitempty"`
}

// Config converts the spec into the experiments configuration every
// participant (coordinator planning, worker computing, merge reducing)
// derives identically. Workers is deliberately absent: each process picks
// its own local parallelism without touching the result.
func (s CampaignSpec) Config() experiments.Config {
	return experiments.Config{
		Draws:        s.Draws,
		Seed:         s.Seed,
		Thin:         s.Thin,
		MIPTimeLimit: time.Duration(s.MIPTimeLimitMs) * time.Millisecond,
		MIPMaxNodes:  s.MIPMaxNodes,
		ExactWorkers: s.ExactWorkers,
		Polish:       s.Polish,
		PolishBudget: s.PolishBudget,
	}
}

// ExactSpec is one distributed exact solve. POST it to /exact. Unknown JSON
// fields are ignored, so older specs carrying the removed relaxation-tier
// and incremental-bound ablations (which never changed results) still
// decode and run.
type ExactSpec struct {
	Instance instance.File `json:"instance"`
	// Rule is "specialized" (default, ""), "one-to-one" ("oto") or
	// "general"; see core.ParseRule.
	Rule string `json:"rule,omitempty"`
	// MaxNodes budgets each subtree (and the frontier enumeration)
	// separately; 0 = the exact package default.
	MaxNodes int64 `json:"maxNodes,omitempty"`
	// WarmStart seeds every participant's identical H4w warm incumbent.
	WarmStart bool `json:"warmStart,omitempty"`
	// Subtrees targets the frontier width (0 = 32).
	Subtrees int `json:"subtrees,omitempty"`
	// DisableExchange turns the periodic incumbent broadcast off: workers
	// prune only against their self-derived warm start. Results are
	// byte-identical either way; exchange only saves nodes.
	DisableExchange bool `json:"disableExchange,omitempty"`
}

// ExactResult is the merged outcome of a distributed exact solve.
type ExactResult struct {
	Assign []int   `json:"assign"`
	Period float64 `json:"period"`
	Proven bool    `json:"proven"`
	// Nodes sums the frontier enumeration and every subtree.
	Nodes int64 `json:"nodes"`
	// Subtrees is the frontier width the solve was sharded into.
	Subtrees int `json:"subtrees"`
}

// Chunk is one leased unit of work. Campaign chunks are self-contained
// (the spec rides along); exact chunks carry only the prefix — workers
// fetch and cache the job's instance once via GET /job/{id}.
type Chunk struct {
	ID   int64  `json:"id"`
	Job  int64  `json:"job"`
	Kind string `json:"kind"`

	// Campaign chunk: draws [D0, D1) of the point at x-axis value X
	// (index XI of the plan's grid).
	Spec *CampaignSpec `json:"spec,omitempty"`
	X    int           `json:"x,omitempty"`
	XI   int           `json:"xi,omitempty"`
	D0   int           `json:"d0,omitempty"`
	D1   int           `json:"d1,omitempty"`

	// Exact chunk: subtree Prefix (index XI of the frontier), the warm
	// period every process must re-derive, and — when incumbent exchange
	// is on — the fabric-wide best period at lease time, injected as the
	// initial strict pruning bound.
	Prefix     []platform.MachineID `json:"prefix,omitempty"`
	WarmPeriod float64              `json:"warmPeriod,omitempty"`
	Best       *float64             `json:"best,omitempty"`
}

// LeaseRequest asks the coordinator for a chunk.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse hands a chunk out, or nothing when no work is pending
// (poll again after a beat).
type LeaseResponse struct {
	Chunk *Chunk `json:"chunk,omitempty"`
}

// CompleteRequest reports a finished chunk. Error carries a deterministic
// chunk failure (the job fails — retrying a pure function is pointless);
// transport failures are retried client-side instead.
type CompleteRequest struct {
	Worker  string                   `json:"worker"`
	Job     int64                    `json:"job"`
	Chunk   int64                    `json:"chunk"`
	Draws   []experiments.DrawResult `json:"draws,omitempty"`
	Subtree *exact.SubtreeOutcome    `json:"subtree,omitempty"`
	Error   string                   `json:"error,omitempty"`
}

// CompleteResponse acknowledges a completion. Duplicate marks a result the
// coordinator already had (a reassigned chunk's first finisher won).
type CompleteResponse struct {
	OK        bool `json:"ok"`
	Duplicate bool `json:"duplicate,omitempty"`
}

// HeartbeatRequest keeps a lease alive and, for exact chunks, carries the
// worker's best-found period up for the exchange.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Job    int64    `json:"job"`
	Chunk  int64    `json:"chunk"`
	Best   *float64 `json:"best,omitempty"`
}

// HeartbeatResponse answers with the fabric-wide best period (exchange on)
// and tells the worker to abandon the chunk when the job is gone.
type HeartbeatResponse struct {
	Best   *float64 `json:"best,omitempty"`
	Cancel bool     `json:"cancel,omitempty"`
}

// JobResponse is GET /job/{id}: the payload workers cache per job.
type JobResponse struct {
	Kind  string     `json:"kind"`
	Exact *ExactSpec `json:"exact,omitempty"`
}

// IncumbentPoint is one step of a job's incumbent trajectory.
type IncumbentPoint struct {
	AtMs   float64 `json:"atMs"`
	Period float64 `json:"period"`
}

// WorkerStatus is one worker's liveness row in /status.
type WorkerStatus struct {
	Name       string  `json:"name"`
	LastSeenMs float64 `json:"lastSeenMs"`
	Chunk      int64   `json:"chunk"` // -1 when idle
}

// JobStatus is one job's scheduling state in /status.
type JobStatus struct {
	ID         int64            `json:"id"`
	Kind       string           `json:"kind"`
	Figure     int              `json:"figure,omitempty"`
	Chunks     int              `json:"chunks"`
	Done       int              `json:"done"`
	Inflight   int              `json:"inflight"`
	Pending    int              `json:"pending"`
	Reassigned int              `json:"reassigned"`
	Duplicates int              `json:"duplicates"`
	Finished   bool             `json:"finished"`
	Incumbent  []IncumbentPoint `json:"incumbent,omitempty"`
}

// StatusResponse is GET /status.
type StatusResponse struct {
	UptimeMs float64        `json:"uptimeMs"`
	Workers  []WorkerStatus `json:"workers"`
	Jobs     []JobStatus    `json:"jobs"`
}

// ErrorResponse mirrors the serve daemon's typed transport errors: a
// stable machine-readable code plus human detail.
type ErrorResponse struct {
	Error  string `json:"error"`
	Detail string `json:"detail,omitempty"`
}
