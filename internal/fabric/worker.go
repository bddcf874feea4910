package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/experiments"
)

// Worker is one fabric worker: it polls the coordinator for leases, runs
// chunks locally, heartbeats while computing, and reports completions.
// Configure the exported fields before Run; the zero values are usable
// defaults apart from Base and Name.
type Worker struct {
	// Base is the coordinator's base URL, e.g. "http://host:9090".
	Base string
	// Name identifies this worker in leases and /status.
	Name string
	// Client is the HTTP client (nil = http.DefaultClient).
	Client *http.Client
	// Poll is the idle re-poll interval when no work is pending
	// (default 100ms).
	Poll time.Duration
	// HeartbeatEvery is the in-chunk heartbeat period (default 2s; keep
	// it well under the coordinator's lease TTL).
	HeartbeatEvery time.Duration
	// Retries bounds re-attempts of one request after a transport error
	// (default 4); Backoff is the initial delay, doubling each retry
	// (default 50ms). Typed coordinator errors are never retried.
	Retries int
	Backoff time.Duration
	// OnLease, when non-nil, observes every leased chunk before it runs
	// (test hook: the harness uses it to kill a worker mid-chunk).
	OnLease func(*Chunk)

	draining atomic.Bool

	mu    sync.Mutex
	specs map[int64]*JobResponse // per-job payload cache (exact instances)
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 100 * time.Millisecond
}

func (w *Worker) heartbeatEvery() time.Duration {
	if w.HeartbeatEvery > 0 {
		return w.HeartbeatEvery
	}
	return 2 * time.Second
}

func (w *Worker) retries() int {
	if w.Retries > 0 {
		return w.Retries
	}
	return 4
}

func (w *Worker) backoff() time.Duration {
	if w.Backoff > 0 {
		return w.Backoff
	}
	return 50 * time.Millisecond
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// Drain stops the worker gracefully: the current chunk finishes and is
// reported, no further lease is taken, and Run returns nil. This is the
// SIGTERM path — a drained worker never strands a lease for the TTL.
func (w *Worker) Drain() {
	w.draining.Store(true)
}

// Run leases and computes chunks until ctx ends (hard kill: the current
// chunk is abandoned unreported and its lease expires on the coordinator)
// or Drain is called (graceful: the current chunk completes first).
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			return nil
		}
		ck, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("lease: %w", err)
		}
		if ck == nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.poll()):
			}
			continue
		}
		if w.OnLease != nil {
			w.OnLease(ck)
		}
		w.runChunk(ctx, ck)
	}
}

func (w *Worker) lease(ctx context.Context) (*Chunk, error) {
	var resp LeaseResponse
	if err := w.postJSON(ctx, "/lease", LeaseRequest{Worker: w.Name}, &resp); err != nil {
		return nil, err
	}
	return resp.Chunk, nil
}

// runChunk computes one chunk under a heartbeat loop. The heartbeat
// extends the lease, streams the local incumbent up, and injects the
// fabric-wide best down into the running search; a Cancel answer (the job
// finished or was abandoned) cancels the chunk context.
func (w *Worker) runChunk(ctx context.Context, ck *Chunk) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// localBest holds this chunk's best-found period as float bits
	// (exact chunks only; +Inf until OnImprove fires).
	var localBest atomic.Uint64
	localBest.Store(math.Float64bits(math.Inf(1)))
	// inject is SolveSubtree's bound-injection lever, published by the
	// BoundInjector hook once the search starts.
	var injectMu sync.Mutex
	var inject func(float64)
	// cancelled distinguishes a coordinator-side cancel (skip the
	// completion: the job is gone) from normal completion.
	var cancelled atomic.Bool

	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(w.heartbeatEvery())
		defer tick.Stop()
		for {
			select {
			case <-cctx.Done():
				return
			case <-tick.C:
			}
			req := HeartbeatRequest{Worker: w.Name, Job: ck.Job, Chunk: ck.ID}
			if ck.Kind == KindExact {
				if b := math.Float64frombits(localBest.Load()); !math.IsInf(b, 1) {
					req.Best = &b
				}
			}
			var resp HeartbeatResponse
			// Single attempt per beat: a lost heartbeat costs nothing a
			// later beat cannot recover.
			if err := w.postOnce(cctx, "/heartbeat", req, &resp); err != nil {
				continue
			}
			if resp.Cancel {
				cancelled.Store(true)
				cancel()
				return
			}
			if resp.Best != nil {
				injectMu.Lock()
				if inject != nil {
					inject(*resp.Best)
				}
				injectMu.Unlock()
			}
		}
	}()

	creq := CompleteRequest{Worker: w.Name, Job: ck.Job, Chunk: ck.ID}
	switch ck.Kind {
	case KindCampaign:
		if ck.Spec == nil {
			creq.Error = "campaign chunk without a spec"
			break
		}
		draws, err := experiments.RunDraws(cctx, ck.Spec.Figure, ck.Spec.Config(), ck.X, ck.D0, ck.D1)
		if err != nil {
			creq.Error = err.Error()
		} else {
			creq.Draws = draws
		}
	case KindExact:
		spec, err := w.jobSpec(cctx, ck.Job)
		if err != nil {
			creq.Error = fmt.Sprintf("fetch job spec: %v", err)
			break
		}
		out, err := w.runSubtree(cctx, spec, ck, &localBest, &injectMu, &inject)
		if err != nil {
			creq.Error = err.Error()
		} else {
			creq.Subtree = out
		}
	default:
		creq.Error = fmt.Sprintf("unknown chunk kind %q", ck.Kind)
	}

	cancel()
	<-hbDone
	if ctx.Err() != nil || cancelled.Load() {
		// Hard kill or coordinator cancel: abandon without completing.
		// The lease expires and the chunk re-runs elsewhere, identically.
		return
	}
	var cresp CompleteResponse
	_ = w.postJSON(ctx, "/complete", creq, &cresp)
}

// runSubtree solves one exact subtree, wiring the exchange: the lease-time
// best (if any) and every heartbeat-delivered best inject as strict
// pruning bounds, and local improvements stream up via localBest.
func (w *Worker) runSubtree(ctx context.Context, spec *ExactSpec, ck *Chunk,
	localBest *atomic.Uint64, injectMu *sync.Mutex, inject *func(float64)) (*exact.SubtreeOutcome, error) {
	rule, err := spec.rule()
	if err != nil {
		return nil, err
	}
	in, err := spec.Instance.ToInstance()
	if err != nil {
		return nil, err
	}
	opts := exact.Options{
		Rule:                    rule,
		Ctx:                     ctx,
		MaxNodes:                spec.MaxNodes,
		WarmStart:               spec.WarmStart,
		DisableIncrementalBound: spec.NoIncBound,
	}
	if !spec.DisableExchange {
		opts.OnImprove = func(p float64, _ *core.Mapping) {
			for {
				cur := localBest.Load()
				if p >= math.Float64frombits(cur) {
					return
				}
				if localBest.CompareAndSwap(cur, math.Float64bits(p)) {
					return
				}
			}
		}
		opts.BoundInjector = func(fn func(float64)) {
			injectMu.Lock()
			*inject = fn
			injectMu.Unlock()
			if ck.Best != nil {
				fn(*ck.Best)
			}
		}
	}
	return exact.SolveSubtree(in, opts, ck.Prefix)
}

// jobSpec fetches and caches GET /job/{id} — exact jobs ship the instance
// once per (worker, job), not once per chunk.
func (w *Worker) jobSpec(ctx context.Context, job int64) (*ExactSpec, error) {
	w.mu.Lock()
	cached := w.specs[job]
	w.mu.Unlock()
	if cached == nil {
		var resp JobResponse
		if err := w.getJSON(ctx, fmt.Sprintf("/job/%d", job), &resp); err != nil {
			return nil, err
		}
		w.mu.Lock()
		if w.specs == nil {
			w.specs = make(map[int64]*JobResponse)
		}
		w.specs[job] = &resp
		cached = &resp
		w.mu.Unlock()
	}
	if cached.Exact == nil {
		return nil, fmt.Errorf("job %d has no exact spec", job)
	}
	return cached.Exact, nil
}

// ---- transport ----

// apiError is a typed coordinator refusal (a 4xx/5xx with an
// ErrorResponse body). Only 5xx refusals are retried.
type apiError struct {
	Status int
	Code   string
	Detail string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("%s (%d): %s", e.Code, e.Status, e.Detail)
}

func retryable(err error) bool {
	if ae, ok := err.(*apiError); ok {
		return ae.Status >= 500
	}
	// Everything else at this layer is a transport failure (dial,
	// timeout, broken pipe) — transient by assumption.
	return true
}

// postJSON posts with bounded exponential backoff on transient errors.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any) error {
	backoff := w.backoff()
	var last error
	for attempt := 0; attempt <= w.retries(); attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		err := w.postOnce(ctx, path, in, out)
		if err == nil {
			return nil
		}
		if !retryable(err) || ctx.Err() != nil {
			return err
		}
		last = err
	}
	return last
}

func (w *Worker) postOnce(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.do(req, out)
}

func (w *Worker) getJSON(ctx context.Context, path string, out any) error {
	backoff := w.backoff()
	var last error
	for attempt := 0; attempt <= w.retries(); attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Base+path, nil)
		if err != nil {
			return err
		}
		err = w.do(req, out)
		if err == nil {
			return nil
		}
		if !retryable(err) || ctx.Err() != nil {
			return err
		}
		last = err
	}
	return last
}

func (w *Worker) do(req *http.Request, out any) error {
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ae := &apiError{Status: resp.StatusCode, Code: "http-error"}
		var er ErrorResponse
		if b, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20)); rerr == nil {
			if json.Unmarshal(b, &er) == nil && er.Error != "" {
				ae.Code, ae.Detail = er.Error, er.Detail
			} else {
				ae.Detail = string(b)
			}
		}
		return ae
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
