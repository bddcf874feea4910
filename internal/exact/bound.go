// Admissible per-node lower bounds for the branch and bound, plus the
// shared search budget and the cross-worker incumbent.
//
// The bound combines three valid relaxations of "best completion of this
// node", each a pure function of the current partial assignment:
//
//   - current maximum load: loads only grow as tasks are placed;
//   - cheapest-remaining-task: the machine that ends up carrying an
//     unplaced task i gains at least dlb(i)·min_u F(i,u)·w(i,u), where
//     dlb(i) lower-bounds i's downstream demand (exact x[succ] when the
//     successor is placed, optimistic min-inflation product otherwise);
//   - work packing: total work must fit on m machines, so the period is at
//     least total/m. Under the Specialized rule this sharpens to a
//     type-count bound: tasks of a type occupy machines dedicated to it,
//     so water-filling the m machines over the per-type work totals gives
//     min over allocations {k_t >= 1, Σk_t <= m} of max_t W_t/k_t — +Inf
//     when more types than machines remain, which also proves
//     infeasibility.
//
// Under the one-to-one rule a fourth relaxation, the bottleneck assignment
// of unplaced tasks to free machines (relax.go), tops these off.
//
// The search only asks whether a node prunes, so the bound is never
// computed as a value: prunes tests each ingredient against the
// incumbents as it is derived, and two screens skip landing scans and
// water-filling passes that cannot change the decision (see prunes).
//
// The ingredients that only change when a task is placed are kept up to
// date on assign instead of being rederived: the placed work per type
// sits in a per-depth stack (placeWork), and the dedicated-machine counts
// and per-type feasibility penalty rows are maintained by occupy/vacate
// (exact.go). Each is the same additions and comparisons, in the same
// order, as the rederivation it replaces; bound_oracle_test.go keeps the
// rederiving bound as the oracle production's decisions must bracket.
// Every full landing scan is one fused core.(*Pricer).MinLandingAt pass.
//
// Admissibility is fuzz-gated by FuzzExactBound against a brute-force
// completion oracle.
package exact

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/platform"
)

// bounder holds the static ingredients of the per-node lower bound, all
// indexed by search-order position; it is read-only after construction
// and shared by all workers.
type bounder struct {
	// succPos[k] is the order position of order[k]'s successor (-1 at a
	// root). Reverse-topological order puts every successor earlier, so
	// succPos[k] < k: the bound's demand sweep visits a task's successor
	// before the task.
	succPos []int
	// minInflAt[k] = min_u 1/(1-f[order[k]][u]): the most optimistic
	// inflation any machine offers the task at position k.
	minInflAt []float64
	// minCostAt[k] = min_u F(i,u)·w(i,u) for i = order[k]: the cheapest
	// contribution the task can make to any machine, per unit of
	// downstream demand.
	minCostAt []float64
	typeAt    []app.TypeID
	// tim is the instance's w[i][u] table (core.TimeTable), read by
	// placeWork.
	tim []float64
}

func newBounder(in *core.Instance, order []app.TaskID) *bounder {
	n, m := in.N(), in.M()
	b := &bounder{succPos: make([]int, n), typeAt: make([]app.TypeID, n), tim: core.TimeTable(in)}
	floats := make([]float64, 2*n)
	b.minInflAt, b.minCostAt = floats[:n:n], floats[n:]
	pos := make([]int, n)
	for k, i := range order {
		pos[i] = k
	}
	for k, i := range order {
		bestInfl, bestCost := math.Inf(1), math.Inf(1)
		for u := 0; u < m; u++ {
			mu := platform.MachineID(u)
			infl := in.Failures.Inflation(i, mu)
			if infl < bestInfl {
				bestInfl = infl
			}
			if c := infl * in.Platform.Time(i, mu); c < bestCost {
				bestCost = c
			}
		}
		b.minInflAt[k] = bestInfl
		b.minCostAt[k] = bestCost
		if succ := in.App.Successor(i); succ == app.NoTask {
			b.succPos[k] = -1
		} else {
			b.succPos[k] = pos[succ]
		}
		b.typeAt[k] = in.App.Type(i)
	}
	return b
}

// sumSlack deflates the summation-based bound ingredients (water-filling,
// total/m packing): their accumulations associate differently from any
// machine's load sum, so a bound that ties the true optimum to the last
// ulp could otherwise overshoot it by rounding and prune an optimal
// subtree. The slack is ~1e4 times the worst accumulated relative error
// (n·2⁻⁵²) and costs nothing measurable in pruning power. The remaining
// ingredients (max load, cheapest landing) reproduce the DFS's own load
// expressions term for term and need none.
const sumSlack = 1 - 1e-12

// placeWork pushes the placed-work stack after order[k] landed on machine
// u (Specialized rule, bound on): row k+1 is row k plus x·w of the new
// task on its type, so row k always holds the placed work per type of
// order[0..k) — the same additions, in the same order, as re-summing the
// placed prefix. Backtracking needs no undo: the row of a shallower depth
// is never overwritten by a deeper one.
func (s *searcher) placeWork(k int, i app.TaskID, u int) {
	p := len(s.typeW)
	prev := s.wAt[k*p : k*p+p]
	next := s.wAt[k*p+p : k*p+2*p]
	copy(next, prev)
	ty := s.bnd.typeAt[k]
	next[ty] = prev[ty] + float64(s.pr.X(i)*s.bnd.tim[int(i)*s.m+u])
}

// prunes reports whether the node at depth k (order[0..k) placed) can be
// cut against the caller's incumbents: whether its admissible lower bound
// reaches localBest (non-strict) or exceeds sharedP (strict). The bound is
// the maximum of its ingredients — the current maximum load, every
// unplaced task's cheapest feasible landing, the packing bound and, under
// the one-to-one rule, the bottleneck assignment (relax.go) — so the node
// prunes iff one ingredient crosses a threshold, and prunes returns at the
// first that does. O((n-k)·m) plus the water-filling pass under the
// Specialized rule.
//
// Two screens skip work that cannot change the decision. Each prices an
// upper bound on the ingredient it stands in for, bit for bit, and skips
// the ingredient when that upper bound crosses neither threshold:
//
//   - landing screen: landArg[j] names the machine that won position j's
//     last landing scan; the task priced on that one machine
//     (Pricer.LandingOn) is never below its cheapest landing
//     (MinLandingAt), a minimum over the same expressions. A stale hint
//     (a machine since closed to the task) prices +Inf and falls back to
//     the full scan;
//   - allocation screen: greedy water-filling is optimal over every valid
//     allocation of the same rounded quotients, so the allocation the last
//     waterfill left in alloc, when still valid for this node, bounds it
//     from above (allocQuot).
//
// The decision is therefore a pure function of the node and the
// thresholds; the hints and the allocation only pick what is priced
// first. Under the one-to-one assignment bound every landing is scanned,
// since the collision filter reads this node's argmins from landArg.
func (s *searcher) prunes(k int, localBest, sharedP float64) bool {
	if mx := s.pr.Max(); mx >= localBest || mx > sharedP {
		return true
	}
	n := len(s.order)
	if k == n {
		return false
	}
	b, m := s.bnd, s.m
	spec := s.rule == core.Specialized
	var total float64
	if spec {
		// Placed contributions are exact (x is final once the successor
		// chain is placed) and only ever move between machines of the same
		// dedicated type; placeWork keeps their per-type sums.
		p := len(s.typeW)
		copy(s.typeW, s.wAt[k*p:k*p+p])
	} else {
		for u := 0; u < m; u++ {
			total += s.pr.Load(platform.MachineID(u))
		}
	}
	// Unplaced suffix: propagate demand lower bounds root-first. order is
	// reverse topological, so a task's successor sits at an earlier
	// position — either placed (exact demand) or already visited in this
	// loop (optimistic demand). Each unplaced task must land on a machine
	// that is feasible *now* (completions only ever shrink the feasible
	// set: dedications and one-to-one uses are never undone), so the
	// cheapest landing — current load included — bounds the final period.
	// The penalty row of the task's type (one shared row outside the
	// Specialized rule) masks the infeasible machines out of the landing
	// minimum.
	dlb, typeW, pen, landArg := s.dlb, s.typeW, s.pen[:m], s.landArg
	succPos, minInflAt, minCostAt, typeAt := b.succPos, b.minInflAt, b.minCostAt, b.typeAt
	screen := s.ab == nil
	for j := k; j < n; j++ {
		d := 1.0
		if sp := succPos[j]; sp >= 0 {
			if sp < k {
				d = s.pr.X(s.order[sp])
			} else {
				d = dlb[sp] * minInflAt[sp]
			}
		}
		dlb[j] = d
		c := float64(d * minCostAt[j])
		if spec {
			ty := int(typeAt[j])
			typeW[ty] += c
			pen = s.pen[ty*m : ty*m+m]
		} else {
			total += c
		}
		i := s.order[j]
		if screen {
			if v := s.pr.LandingOn(i, d, pen, landArg[j]); v < localBest && v <= sharedP {
				continue
			}
		}
		land, at := s.pr.MinLandingAt(i, d, pen)
		if land >= localBest || land > sharedP {
			// Enough to prune, as a +Inf landing (no feasible machine)
			// always is, so landArg never holds -1; the remaining
			// ingredients could only raise the bound.
			return true
		}
		landArg[j] = at
	}
	if spec {
		// Machines already dedicated to a type stay dedicated, so the
		// water-filling allocation floors each type at its current machine
		// count.
		if wf, ok := allocQuot(typeW, s.ded, m, s.alloc); !ok || wf*sumSlack >= localBest || wf*sumSlack > sharedP {
			if wf = waterfill(typeW, s.ded, m, s.alloc, s.quot) * sumSlack; wf >= localBest || wf > sharedP {
				return true
			}
		}
	} else if pk := total / float64(m) * sumSlack; pk >= localBest || pk > sharedP {
		return true
	}
	if s.ab != nil {
		// One-to-one (relax.go): the combinatorial bound failed to prune
		// and s.dlb/s.landArg are filled for this node.
		if v, ok := s.assignmentBound(k); ok && (v >= localBest || v > sharedP) {
			return true
		}
	}
	return false
}

// waterfill returns min over integer machine allocations
// {k_t >= max(1, ded[t]) for W[t] > 0, Σ k_t <= m} of max_t W[t]/k_t — the
// best period a Specialized mapping could reach if every type's work were
// perfectly divisible over the machines it may still claim. +Inf when the
// floors alone exceed m (infeasible: some remaining type can never get a
// machine). Greedily handing each spare machine to the currently worst
// type is optimal: per-machine relief W/k - W/(k+1) is decreasing in k,
// the classic minimax allocation. quot caches each type's W[t]/k_t (-1
// for a type with no work, which never wins a comparison), so each
// machine handed out costs one division.
func waterfill(W []float64, ded []int, m int, alloc []int, quot []float64) float64 {
	floor := 0
	for t, w := range W {
		if w > 0 {
			alloc[t] = max(ded[t], 1)
			floor += alloc[t]
			quot[t] = w / float64(alloc[t])
		} else {
			quot[t] = -1
		}
	}
	if floor == 0 {
		return 0
	}
	if floor > m {
		return math.Inf(1)
	}
	for extra := m - floor; extra > 0; extra-- {
		worst, at := -1.0, -1
		for t, q := range quot {
			if q > worst {
				worst, at = q, t
			}
		}
		alloc[at]++
		quot[at] = W[at] / float64(alloc[at])
	}
	worst := 0.0
	for _, q := range quot {
		if q > worst {
			worst = q
		}
	}
	return worst
}

// allocQuot is the allocation screen: when alloc is a valid water-filling
// allocation for W and ded — every type with work holds at least
// max(ded[t], 1) machines, and those counts sum to at most m — it returns
// max_t W[t]/alloc[t] over the types with work and true, else false. The
// quotients are waterfill's own expressions and the greedy allocation is
// optimal among the valid ones, so the value is never below waterfill's,
// and equal to it at the allocation waterfill leaves behind.
func allocQuot(W []float64, ded []int, m int, alloc []int) (float64, bool) {
	held, worst := 0, 0.0
	for t, w := range W {
		if w > 0 {
			k := alloc[t]
			if k < max(ded[t], 1) {
				return 0, false
			}
			held += k
			if q := w / float64(k); q > worst {
				worst = q
			}
		}
	}
	return worst, held <= m
}

// --- shared search budget ------------------------------------------------

// nodeBatch is the reservation granularity workers draw from the global
// node pool with; it bounds the atomic traffic on the hot path without
// letting the pool overshoot (reservations never exceed MaxNodes, and
// unused ones are returned).
const nodeBatch = 256

// budget is the search allowance shared by every worker of one Solve call:
// a global node pool, a wall-clock deadline, a cancellation context, and a
// stop flag any worker can raise.
type budget struct {
	reserved atomic.Int64
	maxNodes int64
	deadline time.Time
	ctx      context.Context // nil = not cancellable
	stop     atomic.Bool
}

func newBudget(o Options) *budget {
	b := &budget{maxNodes: o.maxNodes(), ctx: o.Ctx}
	if o.TimeLimit > 0 {
		b.deadline = time.Now().Add(o.TimeLimit)
	}
	return b
}

// grab reserves up to nodeBatch nodes from the pool; 0 means the budget is
// exhausted (and raises the stop flag). Cancellation is checked here, at
// every reservation, so a cancelled search stops within one nodeBatch per
// worker instead of grinding through the rest of its reserved pool — the
// latency a request-facing caller sees between cancel and return.
func (b *budget) grab() int64 {
	if b.ctx != nil && b.ctx.Err() != nil {
		b.stop.Store(true)
		return 0
	}
	for {
		cur := b.reserved.Load()
		n := b.maxNodes - cur
		if n <= 0 {
			b.stop.Store(true)
			return 0
		}
		if n > nodeBatch {
			n = nodeBatch
		}
		if b.reserved.CompareAndSwap(cur, cur+n) {
			return n
		}
	}
}

// nodeMeter is one worker's private view of the shared budget.
type nodeMeter struct {
	bud   *budget
	avail int64 // reserved, not yet consumed
	used  int64 // consumed by this worker (paces the deadline checks)
}

// step consumes one node; false means the search must stop (budget
// exhausted, deadline passed, or another worker stopped).
func (m *nodeMeter) step() bool {
	if m.bud.stop.Load() {
		return false
	}
	if m.avail == 0 {
		if m.avail = m.bud.grab(); m.avail == 0 {
			return false
		}
	}
	m.avail--
	m.used++
	if m.used%4096 == 0 && !m.bud.deadline.IsZero() && time.Now().After(m.bud.deadline) {
		m.bud.stop.Store(true)
		return false
	}
	return true
}

func (m *nodeMeter) stopped() bool { return m.bud.stop.Load() }

// release returns unconsumed reservations to the pool so Result.Nodes
// reports nodes actually explored.
func (m *nodeMeter) release() {
	if m.avail > 0 {
		m.bud.reserved.Add(-m.avail)
		m.avail = 0
	}
}

// --- cross-worker incumbent ----------------------------------------------

// incumbent is the best period found so far, shared across workers: a
// lock-free value for the hot pruning reads, plus a mutex-guarded copy
// that serialises the OnImprove stream. Workers prune strictly (> rather
// than >=) against it so that a subtree containing an optimum is never
// abandoned because a peer found an equal solution first — the
// determinism lever of the root split. The answer itself never comes from
// here: every searcher keeps its own best mapping, and Merge reduces them.
type incumbent struct {
	bits atomic.Uint64 // math.Float64bits of the best shared period

	// onImprove, when set, fires under mu every time period improves
	// (Options.OnImprove — the serving layer's incumbent stream).
	mu        sync.Mutex
	period    float64
	onImprove func(float64, *core.Mapping)
}

func newIncumbent(period float64) *incumbent {
	inc := &incumbent{period: period}
	inc.bits.Store(math.Float64bits(period))
	return inc
}

// load returns the current shared period (possibly stale, never below the
// true optimum — safe for strict pruning).
func (inc *incumbent) load() float64 {
	return math.Float64frombits(inc.bits.Load())
}

// offer publishes a solution's period and streams it to OnImprove when it
// improves on every solution offered so far. mp must not be mutated
// afterwards (searchers always pass fresh Mapping snapshots).
func (inc *incumbent) offer(p float64, mp *core.Mapping) {
	inc.injectBound(p)
	if inc.onImprove == nil {
		return
	}
	inc.mu.Lock()
	if p < inc.period {
		inc.period = p
		inc.onImprove(p, mp)
	}
	inc.mu.Unlock()
}

// injectBound lowers the lock-free pruning bound to p — the
// external-incumbent lever of Options.BoundInjector, and the first half of
// offer. An injected period leaves the mutex-guarded copy untouched, so
// OnImprove never fires for foreign solutions. Pruning against the bits
// is strict, so an injected p that is a true upper bound on the optimum
// never cuts an optimal subtree.
func (inc *incumbent) injectBound(p float64) {
	for {
		cur := inc.bits.Load()
		if p >= math.Float64frombits(cur) {
			return
		}
		if inc.bits.CompareAndSwap(cur, math.Float64bits(p)) {
			return
		}
	}
}
