// Package exact solves small mapping instances to optimality by
// depth-first branch and bound over task-to-machine assignments. It is
// independent of the MIP path (package milp), so the two exact solvers
// cross-validate each other in tests; heuristics are benchmarked against
// either.
//
// The search walks tasks root-first (so x[i] is priced exactly as tasks are
// placed, exactly like the heuristics) and prunes a branch as soon as the
// maximum machine load reaches the incumbent period. Candidate pricing
// lives in a core.Pricer — the pricing-only evaluation mode built for
// exactly this access pattern: per-machine loads and the running maximum
// are maintained in O(1) per Assign/Unassign by saving and restoring the
// previous bits, so every load is a pure function of the current partial
// assignment (bit-exact across search orders — the property the parallel
// root split's determinism proof rests on) and the per-node cost carries
// none of the full Evaluator's ledger or tournament-tree machinery.
//
// Three pruning/ordering rules shrink the tree beyond the incumbent test:
//
//   - A dominance rule breaks machine symmetry: machines with identical
//     execution-time and failure columns (w[·][u] == w[·][v] and
//     f[·][u] == f[·][v]) are interchangeable while both are still empty, so
//     at every node the search branches on only the first currently-empty
//     machine of each symmetry class (Options.DisableDominance ablates).
//   - An admissible per-node lower bound (bound.go): the cheapest possible
//     remaining work of the unplaced tasks, aggregated per machine count —
//     with a type-count water-filling refinement under the Specialized rule
//     and a bottleneck-assignment bound under the one-to-one rule
//     (relax.go; Options.DisableAssignBound ablates) — never exceeds the
//     best completion of the node, so a node whose bound reaches the
//     incumbent is pruned without visiting its subtree
//     (Options.DisableBound ablates). The search asks only whether a node
//     prunes, so the bound is evaluated at every node as that yes/no
//     decision: each ingredient is tested against the incumbents as it is
//     derived. A task's cheapest landing is first priced on the machine
//     that won its last landing scan (core.(*Pricer).LandingOn) and
//     scanned in full (MinLandingAt) only when that price could prune;
//     the water-filling reruns only when the allocation it last left could
//     prune. Both screens price upper bounds, bit for bit, so the decision
//     is the full bound's. The ingredients that change only when a task is
//     placed — placed work per type, dedicated-machine counts, per-type
//     feasibility penalty rows — are kept up to date on assign.
//   - A best-first child order plus a greedy restart dive: before the
//     systematic pass, one un-metered greedy descent (take the feasible
//     machine with the smallest resulting load at every depth — the H4
//     greedy run inside the search's own pruning rules) seeds the
//     incumbent, so even a budget-starved cold search returns a
//     near-optimal mapping; the search itself then visits every node's
//     surviving children loaded-machines-first by ascending would-be load
//     (each child's load is an admissible bound on its subtree), deferring
//     the still-empty machines whose subtrees are refuted last. The order
//     is a pure function of the node, so it composes with the parallel
//     determinism argument below (Options.DisableOrder ablates;
//     Options.WarmStart additionally seeds the incumbent with the H4w
//     heuristic).
//
// Options.Workers > 1 runs the search as a parallel root split
// (parallel.go): the assignment frontier is enumerated to a small depth,
// the subtrees fan out over a worker pool sharing one atomic incumbent and
// one atomic node budget, each worker owning a private core.Pricer, and
// Merge reduces their outcomes — the pipeline a fabric coordinator runs
// across processes through Frontier, SolveSubtree and Merge (fabric.go).
// Proven results are byte-identical for any worker count; only Result.Nodes
// varies.
package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/heuristics"
	"microfab/internal/platform"
)

// Typed request-facing errors. A long-lived caller (the serve daemon) keys
// its status codes off these with errors.Is, so Solve never signals a
// malformed or exhausted request through a bare formatted string — and
// never through a nil mapping with a nil error.
var (
	// ErrBadBudget rejects a negative node budget, time limit or worker
	// count before the search starts.
	ErrBadBudget = errors.New("negative budget")
	// ErrInfeasible means the search space was exhausted without finding
	// any rule-feasible mapping: the instance itself admits none.
	ErrInfeasible = errors.New("no feasible mapping")
	// ErrBudgetExhausted means the budget (nodes, deadline or context)
	// stopped the search before any feasible mapping was found. A warm
	// start or the greedy restart dive almost always provides an incumbent,
	// so this surfaces only on searches that were both cold and starved.
	ErrBudgetExhausted = errors.New("budget exhausted before any feasible mapping")
)

// Options bounds the search.
type Options struct {
	// Rule is the mapping rule the solution must respect. Callers almost
	// always want core.Specialized (the paper's realistic rule); set it
	// explicitly, since core's zero Rule is OneToOne.
	Rule core.Rule
	// Ctx cancels the search (nil = never). Workers observe cancellation
	// when they reserve their next node batch from the shared budget, so a
	// cancelled search stops within nodeBatch nodes per worker and returns
	// its best incumbent with Proven=false.
	Ctx context.Context
	// OnImprove, when non-nil, is invoked every time the best-known
	// complete solution improves — the serving layer streams incumbents to
	// clients through it. It is called under an internal lock (keep it
	// cheap and non-blocking) and the mapping must not be mutated. The
	// callback does not fire for the initial warm start; read that off the
	// final Result (or pre-compute it) instead. The streamed period is the
	// search's own price of the mapping, which can differ from the
	// Evaluate-normalised Result.Period in the last ulp. Enabling the
	// callback never changes the nodes explored or the result.
	OnImprove func(period float64, m *core.Mapping)
	// BoundInjector, when non-nil, is called once at search start with an
	// inject function. Calling inject(p) from any goroutine while the
	// search runs lowers the shared pruning bound to p when p improves on
	// it — the lever a distributed coordinator uses to feed one worker's
	// incumbent into another worker's running search (incumbent exchange).
	// The search prunes strictly (>) against injected bounds, so any p
	// that is the period of some feasible mapping of the instance — i.e.
	// an upper bound on the optimum — never prunes away an optimal
	// subtree: proven results are unchanged by injection, only the node
	// count shrinks. Injecting a value below the optimum voids that
	// guarantee.
	BoundInjector func(inject func(period float64))
	// MaxNodes caps explored partial assignments (0 = 50 million). The cap
	// is global: a parallel search shares one atomic node pool across its
	// workers, so Workers=N never explores more nodes than Workers=1.
	MaxNodes int64
	// TimeLimit stops the search (0 = none). On stop the best incumbent
	// so far is returned with Proven=false.
	TimeLimit time.Duration
	// Incumbent optionally warm-starts the bound.
	Incumbent *core.Mapping
	// WarmStart seeds the incumbent with the H4w heuristic when its
	// mapping satisfies the rule (it always does under Specialized and
	// General), so a budgeted cold search returns a near-optimal
	// incumbent even when interrupted early. Composes with Incumbent:
	// the better of the two bounds the search.
	WarmStart bool
	// DisableDominance turns the machine-symmetry dominance rule off
	// (identical w/f columns), for ablations and node-count tests. The
	// optimum is unaffected either way.
	DisableDominance bool
	// DisableBound turns the admissible per-node lower bound off, for
	// ablations and node-count tests. The optimum is unaffected either way.
	DisableBound bool
	// DisableAssignBound turns the one-to-one bottleneck-assignment bound
	// off (relax.go), leaving the combinatorial bound alone, for ablations.
	// It has no effect under the Specialized and General rules, where the
	// bound does not apply. The optimum is unaffected either way.
	DisableAssignBound bool
	// DisableLPBound ablated an LP relaxation bound that has been removed.
	//
	// Deprecated: no effect; kept so existing callers compile.
	DisableLPBound bool
	// DisableIncrementalBound ablated a delta-maintained variant of the
	// lower bound that has been removed; the remaining bound computes the
	// same bits, so the search tree does not depend on this field.
	//
	// Deprecated: no effect; kept so existing callers compile.
	DisableIncrementalBound bool
	// DisableOrder turns the best-first child order and the greedy restart
	// dive off — children branch in ascending machine order like the
	// pre-ordering solver and the first incumbent is whatever the first
	// DFS leaf happens to be — for ablations and node-count tests. The
	// optimum is unaffected either way.
	DisableOrder bool
	// Workers fans the search out over a pool of goroutines via a root
	// split (0 or 1 = sequential; see parallel.go). Proven results are
	// byte-identical for any worker count. A search stopped by MaxNodes
	// keeps the global budget but may stop at a different incumbent than a
	// sequential run (period ties between subtrees break in frontier
	// order); a search stopped by TimeLimit is wall-clock-dependent either
	// way.
	Workers int
}

func (o Options) maxNodes() int64 {
	if o.MaxNodes > 0 {
		return o.MaxNodes
	}
	return 50_000_000
}

func (o Options) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// Result is the search outcome.
type Result struct {
	Mapping *core.Mapping
	Period  float64
	// Proven is true when the search space was exhausted.
	Proven bool
	Nodes  int64
}

// solver is the shared setup of one Solve call: the instance-wide
// read-only tables (task order, symmetry classes, bound ingredients), the
// global budget, and the warm-start incumbent. The sequential search runs
// one searcher over it; the parallel root split shares it across workers.
type solver struct {
	in       *core.Instance
	rule     core.Rule
	order    []app.TaskID
	classOf  []int
	noSym    bool
	noOrder  bool
	noAssign bool
	bnd      *bounder
	bud      *budget

	onImprove func(float64, *core.Mapping)
	injector  func(inject func(float64))

	warmPeriod float64
	warm       *core.Mapping

	// spare is the greedy dive's searcher, unwound to pristine and donated
	// to the next makeSearcher call (always on the constructing goroutine —
	// the dive and the enum/sequential searcher both precede any worker).
	spare *searcher
}

// searcher is one goroutine's search state. All fields are private to the
// owning goroutine; cross-worker coordination happens only through the
// shared budget and incumbent.
type searcher struct {
	in    *core.Instance
	rule  core.Rule
	order []app.TaskID
	m     int

	spec []app.TypeID // Specialized bookkeeping (-1 free)
	used []bool       // OneToOne bookkeeping

	// pr prices the partial assignment: per-machine loads and the running
	// maximum, O(1) per push/pop, every value a pure function of the
	// current partial assignment (bit-exact across search orders — the
	// property that makes parallel and sequential searches byte-identical).
	pr *core.Pricer

	// Machine-symmetry dominance: classOf[u] indexes u's equal-column
	// class; nOn counts tasks per machine on the current search path;
	// firstEmpty[c] is the smallest still-empty machine of class c (m when
	// none), maintained by occupy/vacate so the dominance test is O(1).
	classOf    []int
	nOn        []int
	firstEmpty []int
	noSym      bool

	// cand backs the per-depth child gathering (depth k owns the slice
	// cand[k·m : (k+1)·m]); noOrder ablates the best-first sort.
	cand    []childCand
	noOrder bool

	// land is the batch-pricing scratch: one PriceAllAt pass per node fills
	// it with the would-be load of every landing, replacing m per-machine
	// Trial expressions. Transient within one gather/bound step.
	land []float64

	// frames backs push/pop prefix replays (parallel root split).
	frames []frame

	bnd *bounder // nil = bound pruning disabled
	// Bound ingredients kept up to date on assign (bound.go), allocated
	// only with the bound on. pen holds the feasibility penalty rows the
	// landing minimum adds (0 feasible, +Inf not): one row per type under
	// the Specialized rule, one shared row otherwise (all zeros under
	// General). ded counts the machines dedicated to each type
	// (Specialized). occupy/vacate maintain both. wAt is the per-depth
	// placed-work stack (row k: the work per type of order[0..k)), pushed
	// by placeWork (Specialized).
	pen []float64
	ded []int
	wAt []float64
	// bound scratch (see prunes): demand lower bounds per order position,
	// per-type work, water-filling allocation and quotients. alloc keeps
	// the last water-filling allocation between nodes for the allocation
	// screen.
	dlb   []float64
	typeW []float64
	alloc []int
	quot  []float64
	// landArg records, per order position, the machine that won the last
	// landing scan there (never -1: a task with no feasible landing
	// prunes first). It is the landing screen's hint; under the one-to-one
	// assignment bound every position is scanned at every node, so it
	// holds this node's argmins, which the collision filter reads
	// (relax.go).
	landArg []int

	// ab is the one-to-one bottleneck-assignment bound's workspace
	// (relax.go); nil under the other rules or when the bound is ablated.
	ab *assignBound

	// shared is the cross-worker incumbent (nil in a sequential search).
	shared *incumbent

	best       *core.Mapping
	bestPeriod float64

	meter nodeMeter
}

// childCand is one surviving child of a node: the machine, the load it
// would reach (an admissible bound on the child's whole subtree, re-tested
// against the incumbents at visit time), and whether the machine is still
// empty — the two-level sort key of the best-first order.
type childCand struct {
	load  float64
	u     platform.MachineID
	empty bool
}

// candBefore orders children for the best-first visit: loaded machines
// before still-empty ones (opening a machine commits structure the
// incumbent test refutes slowest, so those subtrees go last), then by
// ascending would-be load; ties keep the ascending-machine gather order
// (strict comparisons, stable insertion sort).
func candBefore(a, b childCand) bool {
	if a.empty != b.empty {
		return !a.empty
	}
	return a.load < b.load
}

// frame saves the rule bookkeeping a prefix replay overwrites (the pricer
// restores its own loads).
type frame struct {
	spec app.TypeID
	used bool
}

const noType app.TypeID = -1

// Solve finds an optimal mapping under the rule, or the best incumbent when
// a budget interrupts the search.
func Solve(in *core.Instance, opts Options) (*Result, error) {
	sv, err := newSolver(in, opts)
	if err != nil {
		return nil, err
	}
	if w := opts.workers(); w > 1 {
		return sv.solveParallel(w)
	}
	// A sequential search with an OnImprove callback or a bound injector
	// routes improvements through a (single-owner) shared incumbent.
	// Without injection its period always equals the searcher's local
	// best, so every pruning test fires exactly as it would without the
	// callback: the node set is unchanged.
	var shared *incumbent
	if sv.onImprove != nil || sv.injector != nil {
		shared = sv.newShared()
	}
	s := sv.newSearcher(shared)
	s.best = sv.warm
	s.bestPeriod = sv.warmPeriod
	s.dfs(0)
	s.meter.release()
	return sv.finish(s.best, s.bestPeriod)
}

// newSolver validates the instance and assembles the shared search setup.
func newSolver(in *core.Instance, opts Options) (*solver, error) {
	if in.N() == 0 {
		return nil, fmt.Errorf("exact: empty instance")
	}
	if opts.MaxNodes < 0 || opts.TimeLimit < 0 || opts.Workers < 0 {
		return nil, fmt.Errorf("exact: %w (MaxNodes=%d, TimeLimit=%v, Workers=%d)",
			ErrBadBudget, opts.MaxNodes, opts.TimeLimit, opts.Workers)
	}
	if opts.Rule == core.OneToOne && in.N() > in.M() {
		return nil, fmt.Errorf("exact: %w: one-to-one impossible with n=%d > m=%d", ErrInfeasible, in.N(), in.M())
	}
	sv := &solver{
		in:         in,
		rule:       opts.Rule,
		order:      in.App.ReverseTopological(),
		classOf:    machineClasses(in),
		noSym:      opts.DisableDominance,
		noOrder:    opts.DisableOrder,
		noAssign:   opts.DisableAssignBound,
		bud:        newBudget(opts),
		onImprove:  opts.OnImprove,
		injector:   opts.BoundInjector,
		warmPeriod: math.Inf(1),
	}
	if !opts.DisableBound {
		sv.bnd = newBounder(in, sv.order)
	}
	if opts.Incumbent != nil {
		if err := opts.Incumbent.CheckRule(in.App, opts.Rule); err == nil {
			p, err := core.PeriodE(in, opts.Incumbent)
			switch {
			case err == nil:
				if p < sv.warmPeriod {
					sv.warmPeriod = p
					sv.warm = opts.Incumbent.Clone()
				}
			case errors.Is(err, core.ErrIncompleteMapping):
				// A partial incumbent cannot bound the search; ignore it.
			default:
				return nil, fmt.Errorf("exact: incumbent does not evaluate: %w", err)
			}
		}
	}
	if opts.WarmStart {
		// H4w is deterministic (its rng parameter is unused) and produces
		// Specialized mappings, valid under General too; under OneToOne it
		// usually fails CheckRule and is skipped. A heuristic failure just
		// means no free warm start.
		if wm, err := heuristics.H4w(in, nil, heuristics.Options{}); err == nil &&
			wm.CheckRule(in.App, opts.Rule) == nil {
			if p, err := core.PeriodE(in, wm); err == nil && p < sv.warmPeriod {
				sv.warmPeriod = p
				sv.warm = wm
			}
		}
	}
	if !opts.DisableOrder {
		sv.greedyDive()
	}
	return sv, nil
}

// greedyDive descends once from the root, taking at every depth the
// feasible, non-dominated machine with the smallest resulting load — the
// H4 greedy executed inside the search's own pruning rules — and seeds the
// incumbent with the leaf when it beats the current warm start. The dive
// is the restart component of the node order: even a budget-starved cold
// search returns its near-optimal mapping, and the systematic pass starts
// with a tight bound. It is un-metered (n pricer steps, like evaluating an
// explicit Incumbent) and a pure function of the instance, so every worker
// count sees the same seed and the parallel byte-identity is preserved. A
// dead end (a task with no feasible machine mid-dive) just means no free
// incumbent.
func (sv *solver) greedyDive() {
	s := sv.makeSearcher(nil, false)
	defer func() {
		// Unwind to pristine (wholesale — the dive is this searcher's only
		// user so far) and donate the allocations to the next makeSearcher.
		s.pr.Reset()
		for u := 0; u < s.m; u++ {
			s.spec[u] = noType
			s.used[u] = false
			s.nOn[u] = 0
		}
		for c := range s.firstEmpty {
			s.firstEmpty[c] = s.m
		}
		for u := s.m - 1; u >= 0; u-- {
			s.firstEmpty[s.classOf[u]] = u
		}
		sv.spare = s
	}()
	for k := range s.order {
		i := s.order[k]
		ty := s.in.App.Type(i)
		demand, _ := s.pr.Demand(i)
		s.pr.PriceAllAt(i, demand, s.land)
		best, bestLoad := -1, math.Inf(1)
		for u := 0; u < s.m; u++ {
			if !s.feasible(u, ty) || s.dominated(u) {
				continue
			}
			if newLoad := s.land[u]; newLoad < bestLoad {
				best, bestLoad = u, newLoad
			}
		}
		if best < 0 {
			return
		}
		s.spec[best] = ty
		s.used[best] = true
		s.occupy(best)
		_ = s.pr.Assign(i, platform.MachineID(best))
	}
	if p := s.pr.Max(); p < sv.warmPeriod {
		sv.warmPeriod = p
		sv.warm = s.pr.Mapping()
	}
}

// finish packages a sequential search outcome (Merge packages a root
// split's).
func (sv *solver) finish(best *core.Mapping, period float64) (*Result, error) {
	if best == nil {
		return nil, errNoMapping(sv.bud.stop.Load())
	}
	// Normalise the reported period through the canonical evaluation.
	// The search prices through core.Pricer's plain sums (bit-exact
	// backtracking); core.Evaluate's compensated ledger can differ from
	// them in the last ulp on some mappings. Result.Period must be THE
	// period of Result.Mapping — the number core.Evaluate returns — or a
	// budget-stopped run could report a period its own mapping does not
	// reprice to. One O(n) evaluation at the end; the search-internal
	// prices (pruning, OnImprove) stay pure Pricer values.
	return &Result{
		Mapping: best,
		Period:  core.Period(sv.in, best),
		Proven:  !sv.bud.stop.Load(),
		Nodes:   sv.bud.reserved.Load(),
	}, nil
}

// errNoMapping is the error of a search that found nothing, split by
// cause: a stopped search was starved (ErrBudgetExhausted — the space may
// well hold a solution), an exhausted one proved there is none
// (ErrInfeasible). Either way the error is typed and the mapping nil —
// never nil/nil.
func errNoMapping(stopped bool) error {
	if stopped {
		return fmt.Errorf("exact: %w", ErrBudgetExhausted)
	}
	return fmt.Errorf("exact: %w", ErrInfeasible)
}

// newShared builds the solver's cross-worker incumbent, wiring the
// OnImprove stream and handing the external-bound injector its lever.
func (sv *solver) newShared() *incumbent {
	shared := newIncumbent(sv.warmPeriod)
	shared.onImprove = sv.onImprove
	if sv.injector != nil {
		sv.injector(shared.injectBound)
	}
	return shared
}

// newSearcher allocates one goroutine's search state over the solver's
// shared tables, with a private pricer (workers never share one).
func (sv *solver) newSearcher(shared *incumbent) *searcher {
	return sv.makeSearcher(shared, true)
}

// makeSearcher builds a searcher; bound=false is the stripped variant
// greedyDive uses — the dive never calls prunes, so it skips the
// bound scratch and the ingredients kept up to date on assign, which
// would otherwise be allocated and maintained on every Solve (the dive
// runs unconditionally). The dive donates its pristine searcher back
// through sv.spare, so a sequential Solve builds the rule/pricer state
// once, not twice; spare handoff is single-goroutine (dive, then the
// enum/sequential searcher — both before any worker goroutine starts).
func (sv *solver) makeSearcher(shared *incumbent, bound bool) *searcher {
	n, m := sv.in.N(), sv.in.M()
	s := sv.spare
	if s != nil {
		sv.spare = nil
		s.shared = shared
	} else {
		s = &searcher{
			in:         sv.in,
			rule:       sv.rule,
			order:      sv.order,
			m:          m,
			spec:       make([]app.TypeID, m),
			used:       make([]bool, m),
			pr:         core.NewPricer(sv.in),
			classOf:    sv.classOf,
			noSym:      sv.noSym,
			cand:       make([]childCand, n*m),
			noOrder:    sv.noOrder,
			land:       make([]float64, m),
			frames:     make([]frame, n),
			shared:     shared,
			bestPeriod: math.Inf(1),
			meter:      nodeMeter{bud: sv.bud},
		}
		ints := make([]int, 2*m)
		s.nOn, s.firstEmpty = ints[:m:m], ints[m:]
		for u := range s.spec {
			s.spec[u] = noType
		}
		for c := range s.firstEmpty {
			s.firstEmpty[c] = m
		}
		for u := m - 1; u >= 0; u-- {
			s.firstEmpty[s.classOf[u]] = u // all machines start empty
		}
	}
	if !bound {
		return s
	}
	if s.bnd = sv.bnd; s.bnd != nil {
		// The searcher is pristine here (fresh, or the unwound dive), so
		// zeroed penalty rows and counts are up to date.
		if sv.rule == core.Specialized {
			p := sv.in.P()
			floats := make([]float64, n+(n+3)*p+p*m)
			s.dlb, floats = floats[:n:n], floats[n:]
			s.wAt, floats = floats[:(n+1)*p:(n+1)*p], floats[(n+1)*p:]
			s.typeW, floats = floats[:p:p], floats[p:]
			s.quot, s.pen = floats[:p:p], floats[p:]
			ints := make([]int, n+2*p)
			s.landArg, ints = ints[:n:n], ints[n:]
			s.ded, s.alloc = ints[:p:p], ints[p:]
		} else {
			floats := make([]float64, n+m)
			s.dlb, s.pen = floats[:n:n], floats[n:]
			s.landArg = make([]int, n)
		}
		if sv.rule == core.OneToOne && !sv.noAssign {
			s.ab = newAssignBound(m)
		}
	}
	return s
}

func (s *searcher) dfs(k int) {
	if !s.meter.step() {
		return
	}
	if k == len(s.order) {
		if p := s.pr.Max(); p < s.bestPeriod {
			s.bestPeriod = p
			s.best = s.pr.Mapping()
			if s.shared != nil {
				s.shared.offer(p, s.best)
			}
		}
		return
	}
	sharedP := math.Inf(1)
	if s.shared != nil {
		sharedP = s.shared.load()
	}
	if s.bnd != nil {
		// Prune strictly against the shared incumbent but non-strictly
		// against the local one: an optimal subtree (bound <= optimum <=
		// shared) is then never lost to another worker's find, which keeps
		// the parallel result deterministic (see parallel.go).
		if s.prunes(k, s.bestPeriod, sharedP) {
			return
		}
	}
	i := s.order[k]
	ty := s.in.App.Type(i)
	for _, c := range s.children(k, sharedP) {
		// Re-test against the local incumbent, which may have improved
		// since the gather while earlier children explored their subtrees.
		if c.load >= s.bestPeriod || c.load > sharedP {
			continue
		}
		// Apply.
		prevSpec, prevUsed := s.spec[c.u], s.used[c.u]
		s.spec[c.u] = ty
		s.used[c.u] = true
		s.occupy(int(c.u))
		_ = s.pr.Assign(i, c.u)
		if s.wAt != nil {
			s.placeWork(k, i, int(c.u))
		}

		s.dfs(k + 1)

		// Revert (the pricer restores the load and maximum bits itself;
		// the placed-work stack needs no undo).
		s.pr.Unassign(i)
		s.vacate(int(c.u))
		s.spec[c.u], s.used[c.u] = prevSpec, prevUsed
		if s.meter.stopped() {
			return
		}
	}
}

// children gathers the surviving child machines of the node at depth k
// into the depth's scratch slice, in exactly the order dfs visits them:
// feasible, non-dominated, below both incumbents, sorted by would-be load
// ascending (machine id breaking ties) unless DisableOrder keeps the
// legacy ascending-machine order. The gather and the sort key are pure
// functions of the node state, so replayed and descended nodes enumerate
// identically — the frontier split (parallel.go expand) calls this same
// helper, which is what keeps its subtrees a partition of the sequential
// node set.
func (s *searcher) children(k int, sharedP float64) []childCand {
	i := s.order[k]
	ty := s.in.App.Type(i)
	// Root-first order guarantees i's demand is priced, so all m landings
	// are priced in one structure-of-arrays pass; the batch result is
	// bit-equal to the per-machine expression the gather used to inline.
	demand, _ := s.pr.Demand(i)
	s.pr.PriceAllAt(i, demand, s.land)
	cands := s.cand[k*s.m : k*s.m : (k+1)*s.m]
	for u := 0; u < s.m; u++ {
		if !s.feasible(u, ty) || s.dominated(u) {
			continue
		}
		newLoad := s.land[u]
		if newLoad >= s.bestPeriod || newLoad > sharedP {
			continue // this branch can only tie or worsen the incumbent
		}
		cands = append(cands, childCand{load: newLoad, u: platform.MachineID(u), empty: s.nOn[u] == 0})
	}
	if !s.noOrder && len(cands) > 1 {
		// Insertion sort: m is small and the slice is short.
		for a := 1; a < len(cands); a++ {
			c := cands[a]
			b := a - 1
			for b >= 0 && candBefore(c, cands[b]) {
				cands[b+1] = cands[b]
				b--
			}
			cands[b+1] = c
		}
	}
	return cands
}

// feasible reports whether machine u may take a task of type ty under the
// rule, given the current dedications. The one candidate filter shared by
// the DFS, the frontier enumeration and the lower bound: the root split's
// subtrees partition exactly the node set a sequential search visits
// because all three call this same test.
func (s *searcher) feasible(u int, ty app.TypeID) bool {
	switch s.rule {
	case core.OneToOne:
		if s.used[u] {
			return false
		}
	case core.Specialized:
		if s.spec[u] != noType && s.spec[u] != ty {
			return false
		}
	}
	return true
}

// dominated reports whether branching on machine u is covered by an
// earlier machine: two still-empty machines with identical w/f columns are
// interchangeable, so branching on any but the first empty machine of a
// class can only revisit (a relabeling of) subtrees the first already
// covered. Emptiness is stable while a candidate loop iterates —
// recursions restore nOn before returning — and firstEmpty makes the
// "an earlier same-class machine is also empty" test O(1).
func (s *searcher) dominated(u int) bool {
	if s.noSym || s.nOn[u] != 0 {
		return false
	}
	return s.firstEmpty[s.classOf[u]] != u
}

// occupy counts one more task onto machine u, maintaining the first-empty
// index of u's symmetry class: when the class's smallest empty machine
// fills up, the next one is found by a forward scan (later machines only —
// u was the smallest). firstEmpty is a pure function of nOn, so balanced
// occupy/vacate pairs restore it exactly.
func (s *searcher) occupy(u int) {
	s.nOn[u]++
	if s.nOn[u] == 1 {
		if s.pen != nil {
			s.claim(u)
		}
		c := s.classOf[u]
		if s.firstEmpty[c] == u {
			fe := s.m
			for v := u + 1; v < s.m; v++ {
				if s.nOn[v] == 0 && s.classOf[v] == c {
					fe = v
					break
				}
			}
			s.firstEmpty[c] = fe
		}
	}
}

// vacate undoes one occupy of machine u.
func (s *searcher) vacate(u int) {
	s.nOn[u]--
	if s.nOn[u] == 0 {
		if s.pen != nil {
			s.release(u)
		}
		c := s.classOf[u]
		if u < s.firstEmpty[c] {
			s.firstEmpty[c] = u
		}
	}
}

// claim records that the empty machine u just took its first task (spec[u]
// already names its type): under the Specialized rule u becomes dedicated
// to that type and infeasible for every other, under one-to-one it is
// used. The penalty rows and dedicated counts are then exactly the
// feasible() filter and the count of occupied dedicated machines the
// bound would otherwise rederive per node.
func (s *searcher) claim(u int) {
	switch s.rule {
	case core.Specialized:
		ty := int(s.spec[u])
		s.ded[ty]++
		inf := math.Inf(1)
		for t := range s.ded {
			if t != ty {
				s.pen[t*s.m+u] = inf
			}
		}
	case core.OneToOne:
		s.pen[u] = math.Inf(1)
	}
}

// release undoes claim when u's last task leaves (spec[u] not yet
// restored).
func (s *searcher) release(u int) {
	switch s.rule {
	case core.Specialized:
		s.ded[s.spec[u]]--
		for t := range s.ded {
			s.pen[t*s.m+u] = 0
		}
	case core.OneToOne:
		s.pen[u] = 0
	}
}

// push replays a frontier prefix (machines for order[0..len(prefix))) onto
// the searcher. The pricer's Assign computes the same load expression the
// dfs gather does, term for term, so replayed and descended states are
// bit-identical.
func (s *searcher) push(prefix []platform.MachineID) {
	for j, mu := range prefix {
		i := s.order[j]
		u := int(mu)
		s.frames[j] = frame{spec: s.spec[u], used: s.used[u]}
		s.spec[u] = s.in.App.Type(i)
		s.used[u] = true
		s.occupy(u)
		_ = s.pr.Assign(i, mu)
		if s.wAt != nil {
			s.placeWork(j, i, u)
		}
	}
}

// pop reverts a push, restoring the saved bookkeeping bit-exactly.
func (s *searcher) pop(prefix []platform.MachineID) {
	for j := len(prefix) - 1; j >= 0; j-- {
		mu := prefix[j]
		u := int(mu)
		s.pr.Unassign(s.order[j])
		s.vacate(u)
		f := s.frames[j]
		s.spec[u], s.used[u] = f.spec, f.used
	}
}

// machineClasses partitions the machines into symmetry classes: u and v
// share a class iff their execution-time and failure columns are
// identical across every task.
func machineClasses(in *core.Instance) []int {
	m := in.M()
	classOf := make([]int, m)
	var reps []platform.MachineID
	for u := 0; u < m; u++ {
		mu := platform.MachineID(u)
		assigned := false
		for c, rep := range reps {
			if machineColumnsEqual(in, mu, rep) {
				classOf[u] = c
				assigned = true
				break
			}
		}
		if !assigned {
			classOf[u] = len(reps)
			reps = append(reps, mu)
		}
	}
	return classOf
}

func machineColumnsEqual(in *core.Instance, u, v platform.MachineID) bool {
	for i := 0; i < in.N(); i++ {
		id := app.TaskID(i)
		if in.Platform.Time(id, u) != in.Platform.Time(id, v) ||
			in.Failures.Rate(id, u) != in.Failures.Rate(id, v) {
			return false
		}
	}
	return true
}
