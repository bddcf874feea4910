// Package sim is a discrete-event simulator of a running micro-factory: a
// mapped application is executed on the machines with stochastic product
// losses drawn from the failure matrix. It substitutes for the authors' C++
// simulator and closes the loop on the analytic model: the steady-state
// throughput measured here converges to 1/period computed by package core.
//
// Model:
//   - products are indistinguishable (paper §3.2), so queues are counters;
//   - each machine serves one product at a time; service of task i on
//     machine u lasts w[i][u] ms; with probability f[i][u] the product is
//     lost at completion (transient failure), otherwise it moves to the
//     successor task;
//   - a join task consumes one product from every predecessor branch;
//   - raw products enter at source tasks from finite input batches.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/platform"
)

// Policy selects which pending task an idle machine serves next.
type Policy int

const (
	// DownstreamFirst serves the task closest to the root first, keeping
	// work-in-progress low and the output stage fed; this is the default.
	DownstreamFirst Policy = iota
	// RoundRobin cycles through the machine's tasks.
	RoundRobin
)

// Options configures a run.
type Options struct {
	// Inputs[k] is the raw-product batch for source k (order of
	// app.Sources()). Use PlanBatches to size them for a target output.
	Inputs []int64
	// Policy defaults to DownstreamFirst.
	Policy Policy
	// Seed drives all Bernoulli loss draws.
	Seed int64
	// MaxEvents is a runaway guard (0 = 50 million).
	MaxEvents int64
}

func (o Options) maxEvents() int64 {
	if o.MaxEvents > 0 {
		return o.MaxEvents
	}
	return 50_000_000
}

// Stats is the outcome of a run.
type Stats struct {
	// Outputs is the number of finished products.
	Outputs int64
	// Time is the simulated makespan in ms.
	Time float64
	// Throughput is Outputs/Time (products per ms).
	Throughput float64
	// InputsUsed[k] counts raw products consumed per source.
	InputsUsed []int64
	// LossesPerTask[i] counts products destroyed while task i processed
	// them.
	LossesPerTask []int64
	// Processed[i] counts service completions of task i (lost or not).
	Processed []int64
	// BusyTime[u] accumulates machine u's service time; utilization is
	// BusyTime[u]/Time.
	BusyTime []float64
	// Events is the number of simulated events.
	Events int64
	// Drained reports whether the run ended because no work was left
	// (false when the MaxEvents guard stopped it).
	Drained bool
}

// Utilization returns BusyTime[u]/Time (0 when Time is 0).
func (s *Stats) Utilization(u platform.MachineID) float64 {
	if s.Time == 0 {
		return 0
	}
	return s.BusyTime[u] / s.Time
}

// event is one service completion.
type event struct {
	t   float64
	seq int64 // FIFO tie-break for equal times
	u   platform.MachineID
	i   app.TaskID
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type simulator struct {
	in  *core.Instance
	mp  *core.Mapping
	rng *rand.Rand
	opt Options

	pending   []int64 // products waiting to start task i
	joinBuf   [][]int64
	joinIndex []map[app.TaskID]int // predecessor -> branch slot of a join
	busyTask  []app.TaskID         // task in service per machine (NoTask = idle)
	rrCursor  []int
	tasksOn   [][]app.TaskID // tasks per machine, in service-priority order

	events eventHeap
	seq    int64
	stats  Stats
}

// Run simulates the mapped instance and returns its statistics.
func Run(in *core.Instance, mp *core.Mapping, opt Options) (*Stats, error) {
	if !mp.Complete() {
		return nil, fmt.Errorf("sim: mapping is incomplete")
	}
	srcs := in.App.Sources()
	if len(opt.Inputs) != len(srcs) {
		return nil, fmt.Errorf("sim: %d input batches for %d sources", len(opt.Inputs), len(srcs))
	}
	n, m := in.N(), in.M()
	s := &simulator{
		in:        in,
		mp:        mp,
		rng:       rand.New(rand.NewSource(opt.Seed)),
		opt:       opt,
		pending:   make([]int64, n),
		joinBuf:   make([][]int64, n),
		joinIndex: make([]map[app.TaskID]int, n),
		busyTask:  make([]app.TaskID, m),
		rrCursor:  make([]int, m),
		tasksOn:   make([][]app.TaskID, m),
	}
	s.stats.InputsUsed = make([]int64, len(srcs))
	s.stats.LossesPerTask = make([]int64, n)
	s.stats.Processed = make([]int64, n)
	s.stats.BusyTime = make([]float64, m)
	for u := range s.busyTask {
		s.busyTask[u] = app.NoTask
	}
	// Join bookkeeping.
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		preds := in.App.Predecessors(id)
		if len(preds) > 1 {
			s.joinBuf[i] = make([]int64, len(preds))
			s.joinIndex[i] = make(map[app.TaskID]int, len(preds))
			for k, p := range preds {
				s.joinIndex[i][p] = k
			}
		}
	}
	// Per-machine service order: tasks sorted by topological position,
	// downstream (closer to the root) first.
	pos := make([]int, n)
	for k, t := range in.App.Topological() {
		pos[t] = k
	}
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		u := mp.Machine(id)
		s.tasksOn[u] = append(s.tasksOn[u], id)
	}
	for u := range s.tasksOn {
		ts := s.tasksOn[u]
		for a := 1; a < len(ts); a++ {
			for b := a; b > 0 && pos[ts[b]] > pos[ts[b-1]]; b-- {
				ts[b], ts[b-1] = ts[b-1], ts[b]
			}
		}
	}
	// Load the source batches.
	for k, src := range srcs {
		if opt.Inputs[k] < 0 {
			return nil, fmt.Errorf("sim: negative input batch %d for source %d", opt.Inputs[k], k)
		}
		s.pending[src] = opt.Inputs[k]
		s.stats.InputsUsed[k] = opt.Inputs[k]
	}
	now := 0.0
	for u := 0; u < m; u++ {
		s.dispatch(platform.MachineID(u), now)
	}
	for len(s.events) > 0 {
		if s.stats.Events >= opt.maxEvents() {
			s.finish(now)
			return &s.stats, nil
		}
		e := heap.Pop(&s.events).(event)
		now = e.t
		s.stats.Events++
		s.complete(e, now)
	}
	s.stats.Drained = true
	s.finish(now)
	return &s.stats, nil
}

// complete handles a service completion: loss draw, product forwarding, and
// re-dispatch of the machine.
func (s *simulator) complete(e event, now float64) {
	i, u := e.i, e.u
	s.stats.Processed[i]++
	s.busyTask[u] = app.NoTask
	if s.rng.Float64() < s.in.Failures.Rate(i, u) {
		s.stats.LossesPerTask[i]++
	} else {
		succ := s.in.App.Successor(i)
		if succ == app.NoTask {
			s.stats.Outputs++
		} else if s.joinBuf[succ] != nil {
			k := s.joinIndex[succ][i]
			s.joinBuf[succ][k]++
			s.tryAssemble(succ)
		} else {
			s.pending[succ]++
		}
	}
	s.dispatch(u, now)
	// Forwarding may have fed an idle machine.
	if succ := s.in.App.Successor(i); succ != app.NoTask {
		s.dispatch(s.mp.Machine(succ), now)
	}
}

// tryAssemble fires a join when every branch buffer holds a product.
func (s *simulator) tryAssemble(j app.TaskID) {
	buf := s.joinBuf[j]
	for _, c := range buf {
		if c == 0 {
			return
		}
	}
	for k := range buf {
		buf[k]--
	}
	s.pending[j]++
}

// dispatch starts the next job on an idle machine, if any is pending.
func (s *simulator) dispatch(u platform.MachineID, now float64) {
	if s.busyTask[u] != app.NoTask {
		return
	}
	ts := s.tasksOn[u]
	if len(ts) == 0 {
		return
	}
	var pick app.TaskID = app.NoTask
	switch s.opt.Policy {
	case RoundRobin:
		for k := 0; k < len(ts); k++ {
			c := (s.rrCursor[u] + k) % len(ts)
			if s.pending[ts[c]] > 0 {
				pick = ts[c]
				s.rrCursor[u] = (c + 1) % len(ts)
				break
			}
		}
	default: // DownstreamFirst: tasksOn is already priority-sorted
		for _, t := range ts {
			if s.pending[t] > 0 {
				pick = t
				break
			}
		}
	}
	if pick == app.NoTask {
		return
	}
	s.pending[pick]--
	s.busyTask[u] = pick
	d := s.in.Platform.Time(pick, u)
	s.stats.BusyTime[u] += d
	s.seq++
	heap.Push(&s.events, event{t: now + d, seq: s.seq, u: u, i: pick})
}

func (s *simulator) finish(now float64) {
	s.stats.Time = now
	if now > 0 {
		s.stats.Throughput = float64(s.stats.Outputs) / now
	}
}

// PlanBatches sizes the raw-product batches so that about xout products
// leave the system: the analytic expectation xout·x[src] per source, scaled
// by a safety margin (e.g. 1.1 for +10%) and rounded up.
func PlanBatches(in *core.Instance, mp *core.Mapping, xout float64, margin float64) ([]int64, error) {
	if margin < 1 {
		margin = 1
	}
	plan, err := core.PlanInputs(in, mp, xout)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(plan.PerSource))
	for k, v := range plan.PerSource {
		// The 1e-9 slack keeps float noise (e.g. 220.0000000000003)
		// from bumping a batch by one product.
		out[k] = int64(math.Ceil(float64(v*margin) - 1e-9))
	}
	return out, nil
}

// MeasureThroughput estimates the steady-state empirical throughput
// (products per ms) of the mapped instance by simulation. It is the
// simulation counterpart of 1/core.Period.
//
// The estimator is busy-time based: one batch sized for `outputs`
// expected finished products (margin 1.0) is run to full drain, and the
// empirical bottleneck period is max_u BusyTime[u]/Outputs — the service
// time machine u performed per finished product, retries after losses
// included, exactly what the analytic period(Mu) = Σ x[i]·w[i][u]
// charges. The estimate is 1 over that maximum.
//
// This replaces the earlier windowed Outputs/ΔTime scheme, which was
// biased upward on in-trees: with padded batches the branch machines
// front-load work into the join buffers, so the outputs inside the window
// were paced by the downstream stages rather than the true bottleneck,
// and work attributable to the windowed outputs had partly been performed
// before the window opened (see internal/sim/convergence_test.go). Busy
// time charges that work to whichever products it served no matter when
// it was performed, and the fill/drain transients it ignores are idle
// time, so the estimator is transient-free on chains and in-trees alike.
//
// warmupFrac is retained for signature compatibility and only validated:
// the busy-time estimator has no startup window to discard.
func MeasureThroughput(in *core.Instance, mp *core.Mapping, outputs int64, warmupFrac float64, seed int64) (float64, error) {
	if outputs <= 0 {
		return 0, fmt.Errorf("sim: outputs must be positive")
	}
	if warmupFrac < 0 || warmupFrac >= 1 {
		return 0, fmt.Errorf("sim: warmupFrac must be in [0,1)")
	}
	batches, err := PlanBatches(in, mp, float64(outputs), 1.0)
	if err != nil {
		return 0, err
	}
	st, err := Run(in, mp, Options{Inputs: batches, Seed: seed})
	if err != nil {
		return 0, err
	}
	if !st.Drained {
		return 0, fmt.Errorf("sim: measurement run did not drain (event budget hit)")
	}
	if st.Outputs == 0 {
		total := int64(0)
		for _, b := range batches {
			total += b
		}
		return 0, fmt.Errorf("sim: no finished products (all %d raw inputs lost); raise outputs", total)
	}
	worst := 0.0
	for u := range st.BusyTime {
		if per := st.BusyTime[u] / float64(st.Outputs); per > worst {
			worst = per
		}
	}
	if worst <= 0 {
		return 0, fmt.Errorf("sim: degenerate measurement (no busy time)")
	}
	return 1 / worst, nil
}
