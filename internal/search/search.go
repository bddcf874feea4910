// Package search is the local-search layer over the incremental
// evaluation engine: it refines complete mappings produced by the
// constructive heuristics (or any solver) by exploring a neighborhood of
// cheap moves, each priced through core.Evaluator in O(changed subtree)
// instead of a full O(n·m) re-evaluation.
//
// Every probe, in the descents and in annealing alike, is decided on its
// read-only trial price: Evaluator.TrialMove reprices the moved tasks'
// in-tree prefix into a plain per-machine delta row without touching the
// evaluator. Only a kept move is applied; the new period is then read off
// the evaluator's compensated ledger. Nothing is ever reverted.
//
// Move set (all rule-aware):
//
//   - relocate — move one task to another admissible machine;
//   - swap — exchange the machines of two tasks;
//   - group — move every task of one machine onto another (merging the
//     type groups the constructive heuristics formed).
//
// Strategies:
//
//   - HillClimb — steepest or first-improvement descent; deterministic,
//     never worsens the seed;
//   - Anneal — simulated annealing over random moves with a geometric
//     cooling schedule; the result is the best mapping ever visited, so it
//     too never worsens the seed. Given the same seed mapping and RNG
//     stream the run is fully deterministic, which is what lets the
//     experiment campaigns polish every draw concurrently and still
//     reduce to byte-identical figures (see internal/experiments).
//
// The facade exposes the strategies as Solve("ls") / Solve("anneal") and
// as a post-pass on any method (microfab.Polish); campaigns enable them
// per draw with Config.Polish.
package search

import (
	"fmt"
	"math"
	"math/rand"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/platform"
)

// moveKind names one of the moves listed in the package doc.
type moveKind uint8

const (
	relocateMove moveKind = iota
	swapMove
	groupMove
)

// annealKinds are Anneal's proposal kinds, relocate weighted double (it is
// the workhorse move).
var annealKinds = []moveKind{relocateMove, relocateMove, swapMove, groupMove}

// move is one neighborhood move: relocate task i onto machine v, swap the
// machines of tasks i and j, or move every task of machine u onto v.
type move struct {
	kind moveKind
	i, j app.TaskID
	u, v platform.MachineID
}

// Options tunes a search run. The zero value means: one-to-one rule
// (core's zero Rule; use DefaultOptions for Specialized), steepest
// descent over the full move set, and the default budgets.
type Options struct {
	// Rule is the mapping rule the moves must respect. The seed mapping
	// must satisfy it. Callers almost always want core.Specialized (the
	// paper's realistic rule); use DefaultOptions to get it filled in,
	// since core's zero Rule is OneToOne.
	Rule core.Rule

	// FirstImprovement makes HillClimb take the first strictly improving
	// move of each scan instead of the steepest.
	FirstImprovement bool

	// MaxProbes bounds the number of candidate moves priced, across the
	// whole run (0 = 100·n·m). Probes are the unit of work: each one is a
	// read-only Evaluator.TrialMove pricing; only a kept move is then
	// applied to the evaluator.
	MaxProbes int

	// Iters is the number of annealing proposals (0 = 60·n). Ignored by
	// HillClimb.
	Iters int

	// Restarts makes HillClimb a multi-start descent: after refining the
	// caller's seed it descends from fresh H-family constructive seeds
	// (H4, H4f, H2, H3, H1 cycled) and returns the strict best of all
	// runs (0 or 1 = single descent). Each restart draws its RNG from
	// gen.DeriveRNG(RestartSeed, r), so the result is deterministic
	// regardless of how callers schedule the work. Ignored by Anneal.
	Restarts int

	// RestartSeed derives the per-restart RNG streams (only H1 consumes
	// randomness). Two runs with equal seeds and options are identical.
	RestartSeed int64
}

// DefaultOptions returns the options every facade entry point starts
// from: specialized rule, steepest descent.
func DefaultOptions() Options {
	return Options{Rule: core.Specialized}
}

func (o Options) maxProbes(n, m int) int {
	if o.MaxProbes > 0 {
		return o.MaxProbes
	}
	return 100 * n * m
}

func (o Options) iters(n int) int {
	if o.Iters > 0 {
		return o.Iters
	}
	return 60 * n
}

// Result is the outcome of a search run.
type Result struct {
	// Mapping is the best mapping found (never worse than the seed).
	Mapping *core.Mapping
	// Period is Mapping's period.
	Period float64
	// Start is the seed mapping's period.
	Start float64
	// Probes counts the candidate moves priced.
	Probes int
	// Accepted counts the moves actually kept (hill-climb improvements,
	// or annealing acceptances).
	Accepted int
}

// improveEps is the strict-improvement tolerance: a move must beat the
// incumbent by more than a relative 1e-9 to be accepted, so float noise
// in the incremental sums cannot drive endless neutral-move cycles.
func improveEps(p float64) float64 { return float64(1e-9 * math.Max(1, p)) }

const noType app.TypeID = -1

// engine tracks one in-progress neighborhood exploration: the incremental
// evaluator plus the rule bookkeeping (machine specializations, occupancy
// and per-machine task lists) that admissibility checks and group moves
// need in O(1), plus the critical-machine candidate filter driving the
// descents.
type engine struct {
	in   *core.Instance
	ev   *core.Evaluator
	rule core.Rule

	spec []app.TypeID // machine's current type (noType when empty); Specialized bookkeeping
	nOn  []int        // tasks per machine

	// tasks[u] lists machine u's tasks (arbitrary but deterministic
	// order); pos[i] is task i's index inside tasks[a(i)]. Maintained in
	// O(1) per move, so group moves and the filter never pay the old
	// O(n) machine scan.
	tasks [][]app.TaskID
	pos   []int

	// The three probe screens below each skip only moves the descent would
	// reject anyway. They are always on in production; the in-package
	// tests switch them off (through hillClimb's tune hook) to pin that
	// the result does not depend on them.

	// Critical-machine candidate filter (see refreshMarks): tasks whose
	// remapping could lower the current maximum carry the current stamp
	// in mark; markedOn[u] counts them per machine.
	filter    bool
	mark      []int
	markedOn  []int
	markStamp int

	// Load-delta candidate screens (see relocScores, swapRejected): the
	// shared structure-of-arrays inflation/time rows plus the batch
	// scoring scratch. score[v] holds the relocate lower bounds of the
	// task last scored; slope[u] the per-machine feeder contributions.
	screen bool
	inflT  []float64
	timT   []float64
	score  []float64
	slope  []float64
	walk   []app.TaskID

	// Read-only trial pricing scratch (see price): the moved tasks and
	// their destination machines.
	moved []app.TaskID
	dest  []platform.MachineID

	probes    int
	maxProbes int

	group []app.TaskID // scratch for group moves
}

// newEngine validates the seed (complete, rule-respecting) and loads it.
func newEngine(in *core.Instance, seed *core.Mapping, opt Options) (*engine, error) {
	if in == nil || seed == nil {
		return nil, fmt.Errorf("search: nil instance or seed mapping")
	}
	if !seed.Complete() {
		return nil, fmt.Errorf("search: seed mapping is incomplete")
	}
	if err := seed.CheckRule(in.App, opt.Rule); err != nil {
		return nil, fmt.Errorf("search: seed violates the %v rule: %w", opt.Rule, err)
	}
	ev, err := core.NewEvaluatorFrom(in, seed)
	if err != nil {
		return nil, fmt.Errorf("search: %w", err)
	}
	e := &engine{
		in:        in,
		ev:        ev,
		rule:      opt.Rule,
		spec:      make([]app.TypeID, in.M()),
		nOn:       make([]int, in.M()),
		tasks:     make([][]app.TaskID, in.M()),
		pos:       make([]int, in.N()),
		filter:    true,
		mark:      make([]int, in.N()),
		markedOn:  make([]int, in.M()),
		screen:    true,
		inflT:     core.InflationTable(in),
		timT:      core.TimeTable(in),
		score:     make([]float64, in.M()),
		slope:     make([]float64, in.M()),
		maxProbes: opt.maxProbes(in.N(), in.M()),
	}
	for u := range e.spec {
		e.spec[u] = noType
	}
	for i := 0; i < in.N(); i++ {
		id := app.TaskID(i)
		u := seed.Machine(id)
		e.nOn[u]++
		e.spec[u] = in.App.Type(id)
		e.pos[id] = len(e.tasks[u])
		e.tasks[u] = append(e.tasks[u], id)
	}
	return e, nil
}

func (e *engine) budgetLeft() bool { return e.probes < e.maxProbes }

// admissible reports whether relocating task i onto machine v respects
// the rule (v must differ from i's machine).
func (e *engine) admissible(i app.TaskID, v platform.MachineID) bool {
	if v == e.ev.Machine(i) {
		return false
	}
	switch e.rule {
	case core.OneToOne:
		return e.nOn[v] == 0
	case core.Specialized:
		return e.nOn[v] == 0 || e.spec[v] == e.in.App.Type(i)
	default:
		return true
	}
}

// swapAdmissible reports whether exchanging the machines of i and j
// respects the rule. Under Specialized, different-type tasks can only
// swap when each is alone on its machine (otherwise the vacated machine
// would mix types).
func (e *engine) swapAdmissible(i, j app.TaskID) bool {
	u, v := e.ev.Machine(i), e.ev.Machine(j)
	if i == j || u == v {
		return false
	}
	switch e.rule {
	case core.OneToOne:
		return true // machines hold exactly one task each
	case core.Specialized:
		if e.in.App.Type(i) == e.in.App.Type(j) {
			return true
		}
		return e.nOn[u] == 1 && e.nOn[v] == 1
	default:
		return true
	}
}

// groupAdmissible reports whether moving every task of machine u onto
// machine v respects the rule.
func (e *engine) groupAdmissible(u, v platform.MachineID) bool {
	if u == v || e.nOn[u] == 0 {
		return false
	}
	switch e.rule {
	case core.OneToOne:
		return e.nOn[u] == 1 && e.nOn[v] == 0
	case core.Specialized:
		return e.nOn[v] == 0 || e.spec[v] == e.spec[u]
	default:
		return true
	}
}

// relocate moves task i onto machine v, maintaining the rule bookkeeping
// and the task lists.
func (e *engine) relocate(i app.TaskID, v platform.MachineID) {
	u := e.ev.Machine(i)
	_ = e.ev.Assign(i, v) // i and v are always in range here
	// Task lists: swap-remove from u, append to v.
	lst := e.tasks[u]
	k, last := e.pos[i], len(lst)-1
	moved := lst[last]
	lst[k] = moved
	e.pos[moved] = k
	e.tasks[u] = lst[:last]
	e.pos[i] = len(e.tasks[v])
	e.tasks[v] = append(e.tasks[v], i)
	e.nOn[u]--
	if e.nOn[u] == 0 {
		e.spec[u] = noType
	}
	e.nOn[v]++
	e.spec[v] = e.in.App.Type(i)
}

// swap exchanges the machines of i and j. The bookkeeping is an O(1)
// exchange: occupancies are unchanged and each machine takes the other
// task's slot in its list.
func (e *engine) swap(i, j app.TaskID) {
	u, v := e.ev.Machine(i), e.ev.Machine(j)
	if i == j || u == v {
		return
	}
	_ = e.ev.Assign(i, v)
	_ = e.ev.Assign(j, u)
	e.tasks[u][e.pos[i]] = j
	e.tasks[v][e.pos[j]] = i
	e.pos[i], e.pos[j] = e.pos[j], e.pos[i]
	// Under Specialized a mixed-type swap is only admissible when both
	// tasks are alone on their machines, so overwriting the types is
	// exact; same-type swaps rewrite the same value.
	e.spec[u] = e.in.App.Type(j)
	e.spec[v] = e.in.App.Type(i)
}

// apply executes mv on the evaluator and the rule bookkeeping.
func (e *engine) apply(mv move) {
	switch mv.kind {
	case swapMove:
		e.swap(mv.i, mv.j)
	case groupMove:
		// Copy the list first: the live one shrinks as its tasks leave.
		e.group = append(e.group[:0], e.tasks[mv.u]...)
		for _, i := range e.group {
			e.relocate(i, mv.v)
		}
	default:
		e.relocate(mv.i, mv.v)
	}
}

// price returns the period the evaluator would reach after mv, read-only
// (Evaluator.TrialMove). It differs from the ledger's post-move period by
// rounding only: about k·ulp·(largest load) for k repriced tasks, at most
// 3e-16 relative across TestTrialMatchesLedger's corpus, far below
// improveEps.
func (e *engine) price(mv move) float64 {
	switch mv.kind {
	case swapMove:
		e.moved = append(e.moved[:0], mv.i, mv.j)
		e.dest = append(e.dest[:0], e.ev.Machine(mv.j), e.ev.Machine(mv.i))
	case groupMove:
		e.moved = append(e.moved[:0], e.tasks[mv.u]...)
		e.dest = e.dest[:0]
		for range e.moved {
			e.dest = append(e.dest, mv.v)
		}
	default:
		e.moved = append(e.moved[:0], mv.i)
		e.dest = append(e.dest[:0], mv.v)
	}
	return e.ev.TrialMove(e.moved, e.dest)
}

// probe counts one probe of mv and keeps the move iff its trial price
// improves cur by more than improveEps. Only a kept move is applied; the
// new period is then read off the ledger. Returns the period and whether
// the move was kept.
func (e *engine) probe(mv move, cur float64) (float64, bool) {
	e.probes++
	if e.price(mv) >= cur-improveEps(cur) {
		return cur, false
	}
	e.apply(mv)
	return e.ev.Period(), true
}

// refreshMarks recomputes the critical-machine candidate filter. A move
// strictly improves the period only if it strictly lowers the load of the
// current critical machine, and remapping task i only changes the loads of
// i's machines (old and new) and of the machines hosting i's feeders
// (their x-values scale with x[i]). Read in reverse: the critical load can
// only drop when the move touches a task on the critical machine or a task
// on the successor chain of one — every other single-task move leaves the
// critical load bit-identical (charge/discharge never touches it), so
// skipping those probes cannot skip an accepted move. The marks are exact
// for the state they were computed against; descents refresh them after
// every kept move. (Probes never touch the evaluator, so nothing else can
// move the loads between refreshes; see the invariance gate
// TestFilterResultInvariant.)
//
// Cost: O(|critical tasks| · chain depth), the marked region only.
func (e *engine) refreshMarks() {
	if !e.filter {
		return
	}
	e.markStamp++
	for u := range e.markedOn {
		e.markedOn[u] = 0
	}
	crit := e.ev.Critical()
	if crit == platform.NoMachine {
		return // all-zero loads: nothing can improve, nothing marked
	}
	for _, t := range e.tasks[crit] {
		for cur := t; cur != app.NoTask; cur = e.in.App.Successor(cur) {
			if e.mark[cur] == e.markStamp {
				break // shared chain suffix already walked
			}
			e.mark[cur] = e.markStamp
			e.markedOn[e.ev.Machine(cur)]++
		}
	}
}

// candidate reports whether relocating task i could improve the period
// (always true with the filter off).
func (e *engine) candidate(i app.TaskID) bool {
	return !e.filter || e.mark[i] == e.markStamp
}

// candidateGroup reports whether moving machine u's tasks anywhere could
// improve the period: some task on u must be a candidate.
func (e *engine) candidateGroup(u platform.MachineID) bool {
	return !e.filter || e.markedOn[u] > 0
}

// screenMargin converts the acceptance threshold into the screens'
// skip threshold: a probe is skipped only when its load lower bound
// reaches cur - eps/2, half the acceptance tolerance away from the
// rejection line. The half-eps margin covers every floating-point
// discrepancy between the screens' flat-array arithmetic and the trial
// price (ulp scale, orders of magnitude below eps), so a skipped probe is
// provably one the descent would have rejected — the screens never change
// the result (TestScreenResultInvariant).
func screenMargin(cur float64) float64 { return cur - float64(improveEps(cur)/2) }

// relocScores fills the scoring scratch with, per machine v, a sound
// lower bound on the period after relocating task i to v — all m targets
// scored in one batch pass instead of m probe round trips. The bound is
// the destination's own resulting load: TrialAll gives
// period(v) + x_i(v)·w(i,v), and the correction term accounts for i's
// transitive feeders already hosted on v, whose x-values scale by exactly
// r = F(i,v)/F(i,a(i)) when i moves (x is a product of inflations along
// the successor chain, and only i's factor changes). The true new load of
// v is period(v) + x_i(v)·w(i,v) + (r-1)·slope(v) with slope(v) the
// feeders' current contribution on v — an equality, not an estimate; it
// lower-bounds the new period because the period is the maximum load.
// Valid until the next kept move.
func (e *engine) relocScores(i app.TaskID) []float64 {
	e.ev.TrialAll(i, e.score)
	m := len(e.score)
	for u := range e.slope {
		e.slope[u] = 0
	}
	e.walk = append(e.walk[:0], i)
	for len(e.walk) > 0 {
		t := e.walk[len(e.walk)-1]
		e.walk = e.walk[:len(e.walk)-1]
		for _, f := range e.in.App.Predecessors(t) {
			e.slope[e.ev.Machine(f)] += e.ev.Contribution(f)
			e.walk = append(e.walk, f)
		}
	}
	base := int(i) * m
	inflRow := e.inflT[base : base+m]
	fu := inflRow[e.ev.Machine(i)]
	for v := 0; v < m; v++ {
		if s := e.slope[v]; s != 0 {
			e.score[v] += float64((inflRow[v]/fu - 1) * s)
		}
	}
	return e.score
}

// swapRejected reports whether swapping i and j is provably rejected at
// the screened threshold, in O(1): after the swap, every task kept on
// machine v keeps at least the fraction
// s_i·s_j = min(1, F(i,v)/F(i,u))·min(1, F(j,u)/F(j,v)) of its contribution
// (only i's and j's inflation factors change anywhere in the x products),
// and the arriving task's new contribution is bounded the same way, so
//
//	load'(v) >= (period(v) - c_j)·s_i·s_j + F(i,v)·d_i·w(i,v)·s_j
//
// and symmetrically for u. When both destination bounds already reach the
// threshold the swap cannot be accepted and the probe is skipped.
func (e *engine) swapRejected(i, j app.TaskID, thresh float64) bool {
	if !e.screen {
		return false
	}
	u, v := e.ev.Machine(i), e.ev.Machine(j)
	m := len(e.score)
	bi, bj := int(i)*m, int(j)*m
	ri := e.inflT[bi+int(v)] / e.inflT[bi+int(u)]
	rj := e.inflT[bj+int(u)] / e.inflT[bj+int(v)]
	si, sj := ri, rj
	if si > 1 {
		si = 1
	}
	if sj > 1 {
		sj = 1
	}
	di, _ := e.ev.Demand(i)
	dj, _ := e.ev.Demand(j)
	newCi := (e.inflT[bi+int(v)] * di) * e.timT[bi+int(v)]
	newCj := (e.inflT[bj+int(u)] * dj) * e.timT[bj+int(u)]
	lb := float64((e.ev.MachinePeriod(v)-e.ev.Contribution(j))*(si*sj)) + float64(newCi*sj)
	if o := float64((e.ev.MachinePeriod(u)-e.ev.Contribution(i))*(si*sj)) + float64(newCj*si); o > lb {
		lb = o
	}
	return lb >= thresh
}

// HillClimb refines the seed mapping by local descent over the move set:
// repeatedly scan the neighborhood in a fixed deterministic order and
// apply improving moves until none is left or the probe budget runs out.
// With FirstImprovement each scan applies every improving move as it is
// found (cheap, good for polish passes); otherwise each round finds the
// steepest single move and applies it.
//
// With Options.Restarts > 1 the descent becomes a deterministic
// multi-start: after the caller's seed, fresh H-family constructive seeds
// give high-failure-regime descents stranded in deep local optima new
// basins to fall into, and the strict best of all runs wins (see
// restartSeed).
//
// The result is never worse than the seed: only strictly improving moves
// are kept, and restart results replace it only on strict improvement.
func HillClimb(in *core.Instance, seed *core.Mapping, opt Options) (*Result, error) {
	return hillClimb(in, seed, opt, nil)
}

// hillClimb is HillClimb with a hook that adjusts every descent's engine
// before it starts; the in-package tests use it to switch the probe
// screens off. tune may be nil.
func hillClimb(in *core.Instance, seed *core.Mapping, opt Options, tune func(*engine)) (*Result, error) {
	res, err := hillClimbOnce(in, seed, opt, tune)
	if err != nil {
		return nil, err
	}
	for r := 1; r < opt.Restarts; r++ {
		mp := restartSeed(in, opt, r)
		if mp == nil {
			continue
		}
		rr, err := hillClimbOnce(in, mp, opt, tune)
		if err != nil {
			continue // a restart seed that fails to load is just no restart
		}
		res.Probes += rr.Probes
		res.Accepted += rr.Accepted
		if rr.Period < res.Period {
			res.Period = rr.Period
			res.Mapping = rr.Mapping
		}
	}
	return res, nil
}

// restartFamily cycles the constructive heuristics the restarts draw
// their seeds from, best-first (H4w is the caller's usual seed already).
var restartFamily = []heuristics.Func{
	heuristics.H4,
	heuristics.H4f,
	heuristics.H2,
	heuristics.H3,
	heuristics.H1,
}

// restartSeed builds the r-th restart's constructive seed (r >= 1): the
// H-family heuristics cycled in a fixed order, each drawing randomness
// (only H1 consumes any) from gen.DeriveRNG(RestartSeed, r) — independent
// deterministic streams, so multi-start results never depend on worker
// scheduling. Seeds that fail the rule (one-to-one instances, infeasible
// regimes) are skipped: nil means no seed for this slot.
func restartSeed(in *core.Instance, opt Options, r int) *core.Mapping {
	h := restartFamily[(r-1)%len(restartFamily)]
	mp, err := h(in, gen.DeriveRNG(opt.RestartSeed, int64(r)), heuristics.Options{})
	if err != nil || mp.CheckRule(in.App, opt.Rule) != nil {
		return nil
	}
	return mp
}

// hillClimbOnce is one descent from one seed.
func hillClimbOnce(in *core.Instance, seed *core.Mapping, opt Options, tune func(*engine)) (*Result, error) {
	e, err := newEngine(in, seed, opt)
	if err != nil {
		return nil, err
	}
	if tune != nil {
		tune(e)
	}
	cur := e.ev.Period()
	res := &Result{Start: cur}
	improved := true
	for improved && e.budgetLeft() {
		improved = false
		if opt.FirstImprovement {
			cur, improved = e.descendFirst(cur, res)
		} else {
			cur, improved = e.descendSteepest(cur, res)
		}
	}
	res.Mapping = e.ev.Mapping()
	res.Period = cur
	res.Probes = e.probes
	return res, nil
}

// descendFirst performs one first-improvement sweep: every improving move
// found is applied immediately. Returns the new period and whether any
// move was applied.
func (e *engine) descendFirst(cur float64, res *Result) (float64, bool) {
	improved := false
	n, m := e.in.N(), e.in.M()
	e.refreshMarks()
	for i := 0; i < n && e.budgetLeft(); i++ {
		id := app.TaskID(i)
		if !e.candidate(id) {
			continue // provably cannot lower the critical load
		}
		var scores []float64
		if e.screen {
			scores = e.relocScores(id)
		}
		for v := 0; v < m && e.budgetLeft(); v++ {
			mv := platform.MachineID(v)
			if !e.admissible(id, mv) {
				continue
			}
			if scores != nil && scores[v] >= screenMargin(cur) {
				continue // destination load alone already rejects the move
			}
			if p, ok := e.probe(move{kind: relocateMove, i: id, v: mv}, cur); ok {
				cur, improved = p, true
				res.Accepted++
				e.refreshMarks()
				if e.screen {
					scores = e.relocScores(id) // id moved: rescore
				}
			}
		}
	}
	for i := 0; i < n && e.budgetLeft(); i++ {
		for j := i + 1; j < n && e.budgetLeft(); j++ {
			a, b := app.TaskID(i), app.TaskID(j)
			if !e.candidate(a) && !e.candidate(b) {
				continue
			}
			if !e.swapAdmissible(a, b) {
				continue
			}
			if e.swapRejected(a, b, screenMargin(cur)) {
				continue
			}
			if p, ok := e.probe(move{kind: swapMove, i: a, j: b}, cur); ok {
				cur, improved = p, true
				res.Accepted++
				e.refreshMarks()
			}
		}
	}
	for u := 0; u < m && e.budgetLeft(); u++ {
		mu := platform.MachineID(u)
		if !e.candidateGroup(mu) {
			continue
		}
		for v := 0; v < m && e.budgetLeft(); v++ {
			mv := platform.MachineID(v)
			if !e.groupAdmissible(mu, mv) {
				continue
			}
			if p, ok := e.probe(move{kind: groupMove, u: mu, v: mv}, cur); ok {
				cur, improved = p, true
				res.Accepted++
				e.refreshMarks()
			}
		}
	}
	return cur, improved
}

// descendSteepest scans the whole neighborhood, remembers the single move
// with the lowest trial price, and applies it. Returns the new period and
// whether a move was applied.
func (e *engine) descendSteepest(cur float64, res *Result) (float64, bool) {
	var best move
	found := false
	bestP := cur
	n, m := e.in.N(), e.in.M()
	e.refreshMarks() // valid for the whole scan: probes are read-only, nothing is kept until the end
	consider := func(mv move) {
		e.probes++
		if p := e.price(mv); p < bestP-improveEps(bestP) {
			bestP, best, found = p, mv, true
		}
	}
	for i := 0; i < n && e.budgetLeft(); i++ {
		id := app.TaskID(i)
		if !e.candidate(id) {
			continue // provably cannot lower the critical load
		}
		var scores []float64
		if e.screen {
			scores = e.relocScores(id) // nothing is kept mid-scan, so one row serves all targets
		}
		for v := 0; v < m && e.budgetLeft(); v++ {
			mv := platform.MachineID(v)
			if !e.admissible(id, mv) {
				continue
			}
			if scores != nil && scores[v] >= screenMargin(bestP) {
				continue // destination load alone already rejects the move
			}
			consider(move{kind: relocateMove, i: id, v: mv})
		}
	}
	for i := 0; i < n && e.budgetLeft(); i++ {
		for j := i + 1; j < n && e.budgetLeft(); j++ {
			a, b := app.TaskID(i), app.TaskID(j)
			if !e.candidate(a) && !e.candidate(b) {
				continue
			}
			if !e.swapAdmissible(a, b) {
				continue
			}
			if e.swapRejected(a, b, screenMargin(bestP)) {
				continue
			}
			consider(move{kind: swapMove, i: a, j: b})
		}
	}
	for u := 0; u < m && e.budgetLeft(); u++ {
		mu := platform.MachineID(u)
		if !e.candidateGroup(mu) {
			continue
		}
		for v := 0; v < m && e.budgetLeft(); v++ {
			mv := platform.MachineID(v)
			if !e.groupAdmissible(mu, mv) {
				continue
			}
			consider(move{kind: groupMove, u: mu, v: mv})
		}
	}
	if !found {
		return cur, false
	}
	e.apply(best)
	res.Accepted++
	return e.ev.Period(), true
}

// Anneal refines the seed by simulated annealing: random neighborhood
// moves are accepted when they improve the period, or with probability
// exp(-Δ/T) when they worsen it, T following a geometric cooling schedule.
// The returned mapping is the best one ever visited, so Anneal never
// worsens the seed. Runs are deterministic for a given seed mapping and
// RNG stream; campaign callers derive the stream per draw with
// gen.DeriveRNG so concurrent polishing stays reproducible.
//
// The initial temperature is auto-tuned from the seed's own move-delta
// scale by acceptance-ratio targeting (see calibrateT0), so the same
// options work across figures whose period scales differ by orders of
// magnitude; it then decays geometrically to a thousandth of that over
// the run.
func Anneal(in *core.Instance, seed *core.Mapping, rng *rand.Rand, opt Options) (*Result, error) {
	if rng == nil {
		return nil, fmt.Errorf("search: Anneal needs an RNG (use gen.RNG or gen.DeriveRNG)")
	}
	e, err := newEngine(in, seed, opt)
	if err != nil {
		return nil, err
	}
	cur := e.ev.Period()
	res := &Result{Start: cur}
	bestP := cur
	bestMap := e.ev.Mapping()

	iters := opt.iters(in.N())

	n, m := in.N(), in.M()
	temp := calibrateT0(e, rng, n, m, cur)
	// Decay to T0/1000 over the run: cool^iters = 1e-3.
	cool := math.Exp(math.Log(1e-3) / float64(iters))
	for it := 0; it < iters && e.budgetLeft(); it++ {
		mv, p, ok := e.proposeRandom(rng, annealKinds[rng.Intn(len(annealKinds))], n, m)
		if ok {
			e.probes++
			if delta := p - cur; delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				e.apply(mv)
				cur = e.ev.Period()
				res.Accepted++
				if cur < bestP-improveEps(bestP) {
					bestP = cur
					bestMap = e.ev.Mapping()
				}
			}
		}
		temp *= cool
	}
	res.Mapping = bestMap
	res.Period = bestP
	res.Probes = e.probes
	return res, nil
}

// calibrateT0 picks the initial annealing temperature by acceptance-ratio
// targeting (Johnson et al. 1989): probe a small sample of random
// neighborhood moves from the seed, average the uphill deltas, and set T0
// so an average worsening move is accepted with probability chi0 at the
// start — exp(-mean(Δ⁺)/T0) = chi0, i.e. T0 = mean(Δ⁺)/ln(1/chi0). The
// temperature then tracks the seed's own period scale: figures whose
// periods differ by orders of magnitude all start around the same uphill
// acceptance ratio, which is what lets `-polish anneal` run without
// per-figure budget tweaking. Every sampled probe is priced read-only and
// the sample draws from the caller's RNG stream, so runs stay deterministic
// per stream; the sample is calibration, not search, and is not counted
// against the probe budget. With no uphill neighbor in the sample (a
// plateau) it falls back to the legacy 5% of the seed period.
func calibrateT0(e *engine, rng *rand.Rand, n, m int, cur float64) float64 {
	const (
		samples = 48
		chi0    = 0.8
	)
	var sum float64
	ups := 0
	for s := 0; s < samples; s++ {
		if _, p, ok := e.proposeRandom(rng, annealKinds[rng.Intn(len(annealKinds))], n, m); ok && p > cur {
			sum += p - cur
			ups++
		}
	}
	if ups == 0 {
		return 0.05 * cur
	}
	return (sum / float64(ups)) / math.Log(1/chi0)
}

// proposeRandom draws one random move of the given kind and returns it
// with its trial price. ok is false when the draw was inadmissible (counts
// as a cooled iteration).
func (e *engine) proposeRandom(rng *rand.Rand, kind moveKind, n, m int) (mv move, p float64, ok bool) {
	mv.kind = kind
	switch kind {
	case swapMove:
		mv.i, mv.j = app.TaskID(rng.Intn(n)), app.TaskID(rng.Intn(n))
		ok = e.swapAdmissible(mv.i, mv.j)
	case groupMove:
		mv.u, mv.v = platform.MachineID(rng.Intn(m)), platform.MachineID(rng.Intn(m))
		ok = e.groupAdmissible(mv.u, mv.v)
	default: // relocate
		mv.i, mv.v = app.TaskID(rng.Intn(n)), platform.MachineID(rng.Intn(m))
		ok = e.admissible(mv.i, mv.v)
	}
	if !ok {
		return mv, 0, false
	}
	return mv, e.price(mv), true
}

// Polish is the bounded post-pass entry point shared by the facade and
// the experiment campaigns: it refines mp with the named strategy ("ls" —
// first-improvement hill climbing, "anneal" — simulated annealing) under
// the given rule and a campaign-sized budget, and returns the refined
// mapping with its period. budget bounds probes ("ls") or proposals
// ("anneal"); 0 means 2000. The result is never worse than mp.
func Polish(in *core.Instance, mp *core.Mapping, strategy string, rule core.Rule, rng *rand.Rand, budget int) (*Result, error) {
	if budget <= 0 {
		budget = 2000
	}
	opt := DefaultOptions()
	opt.Rule = rule
	switch strategy {
	case "ls":
		opt.FirstImprovement = true
		opt.MaxProbes = budget
		return HillClimb(in, mp, opt)
	case "anneal":
		opt.Iters = budget
		// The probe cap must not undercut the requested proposal count on
		// small instances (default MaxProbes is 100·n·m).
		opt.MaxProbes = budget
		return Anneal(in, mp, rng, opt)
	default:
		return nil, fmt.Errorf("search: unknown polish strategy %q (have \"ls\", \"anneal\")", strategy)
	}
}
