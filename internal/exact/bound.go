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

// bounder holds the static ingredients of the per-node lower bound; it is
// read-only after construction and shared by all workers.
type bounder struct {
	// minInfl[i] = min_u 1/(1-f[i][u]): the most optimistic inflation any
	// machine offers task i.
	minInfl []float64
	// minCost[i] = min_u F(i,u)·w(i,u): the cheapest contribution task i
	// can make to any machine, per unit of downstream demand.
	minCost []float64
	// pos[i] is task i's position in the search order.
	pos []int
	// succPos[k] is the order position of order[k]'s successor (-1 at a
	// root). Reverse-topological order puts every successor earlier, so
	// succPos[k] < k — the property the incremental demand sweep leans on.
	succPos []int
	// minInflAt/minCostAt/typeAt re-index minInfl, minCost and the task
	// type by order position: the incremental sweeps are position-indexed,
	// and skipping the order[] indirection matters on their hot path.
	minInflAt []float64
	minCostAt []float64
	typeAt    []app.TypeID
}

func newBounder(in *core.Instance, order []app.TaskID) *bounder {
	n, m := in.N(), in.M()
	b := &bounder{typeAt: make([]app.TypeID, n)}
	floats := make([]float64, 4*n)
	b.minInfl, floats = floats[:n:n], floats[n:]
	b.minCost, floats = floats[:n:n], floats[n:]
	b.minInflAt, floats = floats[:n:n], floats[n:]
	b.minCostAt = floats
	ints := make([]int, 2*n)
	b.pos, b.succPos = ints[:n:n], ints[n:]
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		bestInfl, bestCost := math.Inf(1), math.Inf(1)
		for u := 0; u < m; u++ {
			mu := platform.MachineID(u)
			infl := in.Failures.Inflation(id, mu)
			if infl < bestInfl {
				bestInfl = infl
			}
			if c := infl * in.Platform.Time(id, mu); c < bestCost {
				bestCost = c
			}
		}
		b.minInfl[i] = bestInfl
		b.minCost[i] = bestCost
	}
	for k, i := range order {
		b.pos[i] = k
	}
	for k, i := range order {
		if succ := in.App.Successor(i); succ == app.NoTask {
			b.succPos[k] = -1
		} else {
			b.succPos[k] = b.pos[succ]
		}
		b.minInflAt[k] = b.minInfl[i]
		b.minCostAt[k] = b.minCost[i]
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

// lowerBound returns an admissible lower bound on the period of any
// completion of the current node (order[0..k) placed). O((n-k)·m) plus
// the water-filling pass under the Specialized rule, or the bottleneck
// assignment under the one-to-one rule (relax.go).
//
// localBest and sharedP are the caller's pruning thresholds: the bound
// only ever grows while it accumulates, so the moment it crosses one
// (lb >= localBest or lb > sharedP) the caller will prune whatever the
// final value would have been, and lowerBound returns early. Callers that
// need the full bound value pass +Inf twice (see boundAt in the tests).
func (s *searcher) lowerBound(k int, localBest, sharedP float64) float64 {
	n := len(s.order)
	lb := s.pr.Max()
	if k == n || lb >= localBest || lb > sharedP {
		return lb
	}
	b := s.bnd
	spec := s.rule == core.Specialized
	var total float64
	if spec {
		// Placed work per type: placed contributions are exact (x is final
		// once the successor chain is placed) and only ever move between
		// machines of the same dedicated type.
		for t := range s.typeW {
			s.typeW[t] = 0
		}
		for j := 0; j < k; j++ {
			i := s.order[j]
			c := s.pr.X(i) * s.in.Platform.Time(i, s.pr.Machine(i))
			s.typeW[s.in.App.Type(i)] += c
			total += c
		}
	} else {
		for u := 0; u < s.m; u++ {
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
	//
	// In the default incremental mode the per-position ingredients (dlb,
	// minLand, landArg) are already maintained under every assign/unassign
	// (ibAssign/ibUnassign below), bit-identical to what the from-scratch
	// branch would recompute; the walk only re-prices positions whose
	// cached landing went stale, in fused PriceAllMulti batches of up to
	// ibWindow, and accumulates the same sums in the same order — so both
	// branches cross the early-exit thresholds at exactly the same j and
	// the search trees are node-for-node identical.
	maxTask := 0.0
	if s.inc {
		if s.ibNPend > 0 {
			s.ibApply()
		}
		dlb, minLand := s.dlb, s.minLand
		minCostAt, typeAt := b.minCostAt, b.typeAt
		scan := k
		for j := k; j < n; j++ {
			if j >= scan {
				scan = s.ibRefresh(j, n)
			}
			c := dlb[j] * minCostAt[j]
			total += c
			if spec {
				s.typeW[typeAt[j]] += c
			}
			if land := minLand[j]; land > maxTask {
				maxTask = land
				if maxTask >= localBest || maxTask > sharedP {
					// Already enough to prune; the remaining ingredients
					// could only raise the bound further. Positions past
					// the last refresh window stay stale — and unread.
					return maxTask
				}
			}
		}
	} else {
		// Only a searcher with the one-to-one assignment bound allocates
		// minLand/landArg in this mode (relax.go reads them).
		track := s.minLand != nil
		for j := k; j < n; j++ {
			i := s.order[j]
			var d float64
			if succ := s.in.App.Successor(i); succ == app.NoTask {
				d = 1
			} else if sp := b.pos[succ]; sp < k {
				d = s.pr.X(succ)
			} else {
				d = s.dlb[sp] * b.minInfl[succ]
			}
			s.dlb[j] = d
			c := d * b.minCost[i]
			total += c
			ty := s.in.App.Type(i)
			if spec {
				s.typeW[ty] += c
			}
			land := math.Inf(1)
			landAt := -1
			s.pr.PriceAllAt(i, d, s.land)
			for u := 0; u < s.m; u++ {
				if !s.feasible(u, ty) {
					continue
				}
				if at := s.land[u]; at < land {
					land, landAt = at, u
				}
			}
			if track {
				s.minLand[j] = land
				s.landArg[j] = landAt
			}
			if land > maxTask {
				maxTask = land
				if maxTask >= localBest || maxTask > sharedP {
					// Already enough to prune; the remaining ingredients could
					// only raise the bound further.
					return maxTask
				}
			}
		}
	}
	if maxTask > lb {
		lb = maxTask
	}
	if spec {
		// Machines already dedicated to a type stay dedicated, so the
		// water-filling allocation floors each type at its current machine
		// count.
		for t := range s.ded {
			s.ded[t] = 0
		}
		for u := 0; u < s.m; u++ {
			if s.nOn[u] > 0 && s.spec[u] != noType {
				s.ded[s.spec[u]]++
			}
		}
		if wf := waterfill(s.typeW, s.ded, s.m, s.alloc) * sumSlack; wf > lb {
			lb = wf
		}
	} else if pk := total / float64(s.m) * sumSlack; pk > lb {
		lb = pk
	}
	if s.ab != nil {
		// One-to-one (relax.go): the combinatorial bound failed to prune
		// and s.dlb/s.landArg are filled for this node.
		if v, ok := s.assignmentBound(k); ok && v > lb {
			lb = v
		}
	}
	return lb
}

// --- incremental bound state ---------------------------------------------
//
// One DFS assign perturbs the bound's per-position ingredients in exactly
// two narrow ways: the demand lower bounds change only along the assigned
// task's feeder chains (dlb propagates successor-to-feeder in the
// reverse-topological order), and one machine's load grows — monotonically
// — so a cached cheapest landing can only be invalidated when its argmin
// machine is the touched one (any other machine's price is unchanged, and
// the touched machine's price only grew, so a minimum attained elsewhere
// stays a minimum, first-of-equals tie-break included) or when the
// position's own demand changed. ibAssign records exactly those
// invalidations; the re-pricing itself is deferred to the next lowerBound
// walk (ibRefresh), which prices stale positions through the fused
// PriceAllMulti kernel and — like the from-scratch loop — stops paying at
// an early exit. Every mutation is logged with the overwritten values, so
// ibUnassign restores the state bit-exactly in LIFO order, the same
// discipline the Pricer applies to its loads.

// ibEntry is one change-log record: the position touched and the exact
// prior (dlb, minLand, landArg, stale) tuple to restore on unassign.
type ibEntry struct {
	j       int32
	landArg int32
	stale   bool
	dlb     float64
	minLand float64
}

// ibWindow is the refresh batch width: lowerBound's incremental walk
// re-prices stale positions in fused batches of up to this many, so an
// early exit over-prices at most ibWindow-1 positions beyond the exit
// point while long fills still amortize the kernel call.
const ibWindow = 8

// incBoundMinM is the machine-count floor of the auto gate: re-pricing a
// landing costs O(m), the bookkeeping a cache hit saves it with does not,
// so below this width recomputing from scratch is simply cheaper
// (measured crossover on in-tree instances: break-even near m=12, the
// incremental engine ahead from m=16).
const incBoundMinM = 12

// incBoundForce bypasses the auto gate (not the explicit ablation flag) so
// the differential tests exercise the incremental engine on instances the
// gate would route to the from-scratch path.
var incBoundForce = false

// incBoundAuto reports whether the delta-maintained bound state is expected
// to pay for itself on this instance. One DFS assign dirties the demand
// lower bounds of exactly the assigned task's feeder subtree, so the
// average subtree size is the engine's per-node delta cost — and on dense
// feeder forests (a chain is the worst case: every assign dirties the whole
// suffix) delta maintenance degenerates into the from-scratch sweep plus
// logging. The gate enables the engine when the average dirtied fraction is
// at most a third of the instance and machines are wide enough that the
// saved re-pricing outweighs the bookkeeping. Both modes compute
// bit-identical bounds, so the choice never changes a search result — only
// how fast it is reached.
func incBoundAuto(in *core.Instance, order []app.TaskID) bool {
	if in.M() < incBoundMinM {
		return false
	}
	n := len(order)
	sz := make([]int, n)
	for i := range sz {
		sz[i] = 1
	}
	total := 0
	// order is reverse topological (successors first), so walking it
	// backwards visits every feeder before its successor: sz accumulates
	// complete feeder-subtree sizes bottom-up.
	for k := n - 1; k >= 0; k-- {
		i := order[k]
		total += sz[i]
		if succ := in.App.Successor(i); succ != app.NoTask {
			sz[succ] += sz[i]
		}
	}
	return 3*total <= n*n
}

// initIncBound seeds the cached ingredients for the empty assignment: the
// demand lower bounds are filled eagerly (O(n) arithmetic, no pricing) and
// every landing starts stale, so the first lowerBound walk prices them on
// demand — and an early exit there skips the tail exactly like every later
// node does. No searcher ever pays for landings its bounds never read.
func (s *searcher) initIncBound() {
	b := s.bnd
	n := len(s.order)
	for j := 0; j < n; j++ {
		if sp := b.succPos[j]; sp < 0 {
			s.dlb[j] = 1
		} else {
			s.dlb[j] = s.dlb[sp] * b.minInflAt[sp]
		}
		s.landArg[j] = -1
		s.ibStale[j] = true
	}
}

// ibAssign records that order[k] landed on machine u. The delta sweep
// itself is deferred until a bound walk needs the cached state (ibApply):
// a leaf assign, or one whose child bound exits on the current maximum
// alone, then costs O(1) instead of O(n-k) — and in a DFS tree the deepest
// levels are most of the nodes.
func (s *searcher) ibAssign(k, u int) {
	s.ibPendK[s.ibNPend] = k
	s.ibPendU[s.ibNPend] = u
	s.ibNPend++
}

// ibApply drains the deferred assigns in frame order, bringing dlb and the
// staleness marks up to date with the pricer. Called by lowerBound before
// its incremental walk reads any cached ingredient.
func (s *searcher) ibApply() {
	for p := 0; p < s.ibNPend; p++ {
		s.ibApplyOne(s.ibPendK[p], s.ibPendU[p])
	}
	s.ibNPend = 0
}

// ibApplyOne is the delta sweep for one recorded assign (pricer and rule
// bookkeeping already updated): one ascending pass over the unplaced
// positions updates every dlb the assign changed and marks the positions
// whose cached landing can no longer be trusted. No pricing work at all —
// that is deferred further, to ibRefresh.
func (s *searcher) ibApplyOne(k, u int) {
	s.ibMark[k] = len(s.ibLog)
	s.ibGen++
	gen := s.ibGen
	s.ibPrevGen[k] = s.ibOpenGen
	s.ibOpenGen = gen
	b := s.bnd
	n := len(s.order)
	xi := s.pr.X(s.order[k])
	dlb, minLand, landArg := s.dlb, s.minLand, s.landArg
	stale, stamp, logStamp := s.ibStale, s.ibStamp, s.ibLogStamp
	succPos, minInflAt := b.succPos, b.minInflAt
	for j := k + 1; j < n; j++ {
		nd := dlb[j]
		if sp := succPos[j]; sp == k {
			// The successor was just placed: the optimistic product
			// becomes the exact x.
			nd = xi
		} else if sp > k && stamp[sp] == gen {
			// The successor's own dlb changed earlier in this sweep
			// (ascending j visits sp < j first); recompute from it.
			nd = dlb[sp] * minInflAt[sp]
		}
		if nd != dlb[j] {
			s.ibLog = append(s.ibLog, ibEntry{j: int32(j), landArg: int32(landArg[j]),
				stale: stale[j], dlb: dlb[j], minLand: minLand[j]})
			logStamp[j] = gen
			dlb[j] = nd
			stamp[j] = gen
			stale[j] = true
			continue
		}
		// Demand bit-unchanged: propagation legitimately stops here (any
		// downstream recomputation would reproduce the cached bits), and
		// the landing survives unless its argmin is the touched machine.
		// A stale position's cached argmin may be outdated, but stale
		// already means "re-price before trusting" — nothing to add.
		if !stale[j] && landArg[j] == u {
			s.ibLog = append(s.ibLog, ibEntry{j: int32(j), landArg: int32(landArg[j]),
				stale: false, dlb: dlb[j], minLand: minLand[j]})
			logStamp[j] = gen
			stale[j] = true
		}
	}
}

// ibUnassign reverts ibAssign(k, ·). If that assign is still pending (no
// bound walk needed the cache while the frame was open — a leaf, or a child
// pruned on its current maximum alone), reverting is dropping the record.
// Otherwise it pops the change log back to the watermark ibApplyOne set,
// restoring every touched tuple to its exact prior bits (reverse order: a
// position logged twice — assign dirty, then lazy refresh — ends on its
// assign-time value).
func (s *searcher) ibUnassign(k int) {
	if s.ibNPend > 0 && s.ibPendK[s.ibNPend-1] == k {
		s.ibNPend--
		return
	}
	mark := s.ibMark[k]
	dlb, minLand, landArg, stale := s.dlb, s.minLand, s.landArg, s.ibStale
	for e := len(s.ibLog) - 1; e >= mark; e-- {
		en := &s.ibLog[e]
		dlb[en.j] = en.dlb
		minLand[en.j] = en.minLand
		landArg[en.j] = int(en.landArg)
		stale[en.j] = en.stale
	}
	s.ibLog = s.ibLog[:mark]
	s.ibOpenGen = s.ibPrevGen[k]
}

// ibRefresh re-prices the stale positions in the window [from, from+ibWindow)
// (clamped to n) and returns the window end: every position below it is
// trusted afterwards. Refreshes run inside lowerBound, after the node's
// ibAssign, so the log entries they append belong to the innermost open
// frame and are restored by its ibUnassign.
func (s *searcher) ibRefresh(from, n int) int {
	hi := from + ibWindow
	if hi > n {
		hi = n
	}
	stale := s.ibStale
	cnt := 0
	for j := from; j < hi; j++ {
		if stale[j] {
			s.ibPos[cnt] = j
			cnt++
		}
	}
	switch cnt {
	case 0:
	case 1:
		// One stale landing: the fused kernel would price a batch of one;
		// PriceAllAt computes the same row bits without the batch setup.
		j := s.ibPos[0]
		s.pr.PriceAllAt(s.order[j], s.dlb[j], s.land)
		s.ibStore(j, s.land)
	default:
		s.ibRescan(s.ibPos[:cnt])
	}
	return hi
}

// ibRescan recomputes the cached cheapest landing of the given order
// positions from the current loads and feasibility in one fused
// PriceAllMulti pass.
func (s *searcher) ibRescan(pos []int) {
	tasks := s.ibTasks[:len(pos)]
	dem := s.ibDem[:len(pos)]
	dlb, order := s.dlb, s.order
	for t, j := range pos {
		tasks[t] = order[j]
		dem[t] = dlb[j]
	}
	out := s.ibOut[:len(pos)*s.m]
	s.pr.PriceAllMulti(tasks, dem, out)
	for t, j := range pos {
		s.ibStore(j, out[t*s.m:(t+1)*s.m])
	}
}

// ibStore logs (once per open frame) and installs position j's re-priced
// landing row: the same ascending strict-< feasible argmin scan as the
// from-scratch loop — bit-equal cells, so the first-of-equals tie-break
// lands on the same machine.
func (s *searcher) ibStore(j int, row []float64) {
	if s.ibOpenGen != 0 && s.ibLogStamp[j] != s.ibOpenGen {
		// Not yet logged in the innermost open frame (gen 0 means none is
		// open — a root pass needs no restore): save the pre-frame tuple.
		// A position the frame's ibAssign already logged restores through
		// that entry instead.
		s.ibLog = append(s.ibLog, ibEntry{j: int32(j), landArg: int32(s.landArg[j]),
			stale: true, dlb: s.dlb[j], minLand: s.minLand[j]})
		s.ibLogStamp[j] = s.ibOpenGen
	}
	ty := s.bnd.typeAt[j]
	land := math.Inf(1)
	landAt := -1
	for u := 0; u < s.m; u++ {
		if !s.feasible(u, ty) {
			continue
		}
		if at := row[u]; at < land {
			land, landAt = at, u
		}
	}
	s.minLand[j] = land
	s.landArg[j] = landAt
	s.ibStale[j] = false
}

// waterfill returns min over integer machine allocations
// {k_t >= max(1, ded[t]) for W[t] > 0, Σ k_t <= m} of max_t W[t]/k_t — the
// best period a Specialized mapping could reach if every type's work were
// perfectly divisible over the machines it may still claim. +Inf when the
// floors alone exceed m (infeasible: some remaining type can never get a
// machine). Greedily handing each spare machine to the currently worst
// type is optimal: per-machine relief W/k - W/(k+1) is decreasing in k,
// the classic minimax allocation.
func waterfill(W []float64, ded []int, m int, alloc []int) float64 {
	floor := 0
	any := false
	for t, w := range W {
		if w > 0 {
			any = true
			alloc[t] = ded[t]
			if alloc[t] < 1 {
				alloc[t] = 1
			}
			floor += alloc[t]
		} else {
			alloc[t] = 0
		}
	}
	if !any {
		return 0
	}
	if floor > m {
		return math.Inf(1)
	}
	for extra := m - floor; extra > 0; extra-- {
		worst, at := -1.0, -1
		for t, w := range W {
			if w <= 0 {
				continue
			}
			if v := w / float64(alloc[t]); v > worst {
				worst, at = v, t
			}
		}
		alloc[at]++
	}
	worst := 0.0
	for t, w := range W {
		if w <= 0 {
			continue
		}
		if v := w / float64(alloc[t]); v > worst {
			worst = v
		}
	}
	return worst
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

// incumbent is the best complete solution found so far, shared across
// workers: a lock-free period for the hot pruning reads plus a
// mutex-guarded (period, mapping) pair for the final stopped-search
// answer. Workers prune strictly (> rather than >=) against it so that a
// subtree containing an optimum is never abandoned because a peer found an
// equal solution first — the determinism lever of the root split.
type incumbent struct {
	bits atomic.Uint64 // math.Float64bits of the best shared period

	mu      sync.Mutex
	period  float64
	mapping *core.Mapping

	// onImprove, when set, fires under mu every time the stored pair
	// improves (Options.OnImprove — the serving layer's incumbent stream).
	onImprove func(float64, *core.Mapping)
}

func newIncumbent(period float64, mapping *core.Mapping) *incumbent {
	inc := &incumbent{period: period, mapping: mapping}
	inc.bits.Store(math.Float64bits(period))
	return inc
}

// load returns the current shared period (possibly stale, never below the
// true optimum — safe for strict pruning).
func (inc *incumbent) load() float64 {
	return math.Float64frombits(inc.bits.Load())
}

// offer publishes a solution; the best one wins. mp must not be mutated
// afterwards (searchers always pass fresh Mapping snapshots).
func (inc *incumbent) offer(p float64, mp *core.Mapping) {
	for {
		cur := inc.bits.Load()
		if p >= math.Float64frombits(cur) {
			break
		}
		if inc.bits.CompareAndSwap(cur, math.Float64bits(p)) {
			break
		}
	}
	inc.mu.Lock()
	if p < inc.period {
		inc.period, inc.mapping = p, mp
		if inc.onImprove != nil {
			inc.onImprove(p, mp)
		}
	}
	inc.mu.Unlock()
}

// injectBound lowers the lock-free pruning bound to p without publishing a
// mapping — the external-incumbent lever of Options.BoundInjector. Only
// the atomic bits move; the mutex-guarded (period, mapping) pair is
// untouched, so a stopped search never reports an injected period it has
// no mapping for, and OnImprove never fires for foreign solutions.
// Pruning against the bits is strict, so an injected p that is a true
// upper bound on the optimum never cuts an optimal subtree.
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

// snapshot returns the best (period, mapping) pair observed so far.
func (inc *incumbent) snapshot() (float64, *core.Mapping) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.period, inc.mapping
}
