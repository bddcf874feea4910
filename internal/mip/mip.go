// Package mip solves mixed-integer programs by LP-based branch and bound:
// best-bound node selection, most-fractional branching, an optional warm
// incumbent, and a rounding-dive primal heuristic. It is the exact layer
// the paper obtains from CPLEX. On the paper's Figure 10–12 models it
// proves small draws within a campaign's node budget but stops proving
// past about 15 tasks, as the paper's MIP does; a search that stops early
// reports Feasible or Budget with its proven Bound.
package mip

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"microfab/internal/lp"
)

// intTol is the integrality tolerance: values within intTol of an integer
// count as integral.
const intTol = 1e-6

// diveEvery is the node period of the rounding-dive heuristic: it runs at
// nodes 1, 1+diveEvery, 1+2·diveEvery, ...
const diveEvery = 50

// pivotCap, when positive, replaces the LP's default pivot cap for every
// solve of the search; only tests set it.
var pivotCap int

// solveLP solves model under the search's pivot cap.
func solveLP(model *lp.Model) (*lp.Solution, error) {
	if pivotCap > 0 {
		return model.SolveWithLimit(pivotCap)
	}
	return model.Solve()
}

// Problem couples an LP model with integrality requirements.
type Problem struct {
	Model *lp.Model
	// Integers lists the variables required to take integer values.
	Integers []int
}

// Options tunes the search; the zero value uses sensible defaults.
type Options struct {
	// MaxNodes caps explored nodes (0 = 200000).
	MaxNodes int
	// TimeLimit stops the search after this wall-clock duration
	// (0 = no limit).
	TimeLimit time.Duration
	// Incumbent optionally warm-starts the search with a known feasible
	// point (its objective is recomputed; it is NOT verified against the
	// rows — pass genuinely feasible points only).
	Incumbent []float64
}

func (o Options) maxNodes() int {
	if o.MaxNodes > 0 {
		return o.MaxNodes
	}
	return 200000
}

// Status reports how the search ended.
type Status int

const (
	// Optimal: the search ran to completion, so the incumbent is proven
	// optimal up to tolerances.
	Optimal Status = iota
	// Feasible: an incumbent exists but the search stopped early (node
	// or time budget), or a node's LP stopped at its pivot cap before
	// the incumbent could prune that node.
	Feasible
	// Infeasible: no integer-feasible point exists.
	Infeasible
	// Unbounded: the LP relaxation is unbounded.
	Unbounded
	// Budget: as Feasible, but with no incumbent found.
	Budget
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Budget:
		return "budget-exhausted"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Result is the outcome of a solve.
type Result struct {
	Status    Status
	X         []float64
	Objective float64
	// Bound is the proven lower bound on the optimum (minimization).
	Bound float64
	// Nodes explored, LPIterations summed over all LP solves.
	Nodes        int
	LPIterations int
	Elapsed      time.Duration
}

// Gap returns the relative optimality gap (0 when proven optimal).
func (r *Result) Gap() float64 {
	if r.Status == Optimal {
		return 0
	}
	if math.IsInf(r.Objective, 1) || math.IsInf(r.Bound, -1) {
		return math.Inf(1)
	}
	den := math.Abs(r.Objective)
	if den < 1 {
		den = 1
	}
	return (r.Objective - r.Bound) / den
}

// node is one branch-and-bound subproblem: full bound vectors for the
// integer variables (continuous bounds never change during the search).
type node struct {
	lower, upper []float64 // indexed by position in Problem.Integers
	bound        float64   // parent LP objective (optimistic)
}

type nodeHeap []*node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Solve runs branch and bound on the problem.
func Solve(p *Problem, opts Options) (*Result, error) {
	start := time.Now()
	model := p.Model
	ints := p.Integers
	res := &Result{Objective: math.Inf(1), Bound: math.Inf(-1)}

	if len(ints) == 0 {
		sol, err := solveLP(model)
		if err != nil {
			return nil, err
		}
		res.Elapsed = time.Since(start)
		res.LPIterations = sol.Iterations
		switch sol.Status {
		case lp.Optimal:
			res.Status = Optimal
			res.X = sol.X
			res.Objective = sol.Objective
			res.Bound = sol.Objective
		case lp.Infeasible:
			res.Status = Infeasible
		case lp.Unbounded:
			res.Status = Unbounded
		default:
			res.Status = Budget
		}
		return res, nil
	}

	// Remember the original integer bounds so node bounds can be applied
	// and reverted on the single shared model.
	baseLo := make([]float64, len(ints))
	baseHi := make([]float64, len(ints))
	for k, v := range ints {
		baseLo[k], baseHi[k] = model.Bounds(v)
	}
	restore := func() {
		for k, v := range ints {
			model.SetBounds(v, baseLo[k], baseHi[k])
		}
	}
	apply := func(nd *node) {
		for k, v := range ints {
			model.SetBounds(v, nd.lower[k], nd.upper[k])
		}
	}

	if opts.Incumbent != nil {
		obj := 0.0
		for v := 0; v < model.NumVars(); v++ {
			obj += float64(model.ObjCoef(v) * opts.Incumbent[v])
		}
		res.X = append([]float64(nil), opts.Incumbent...)
		res.Objective = obj
	}

	root := &node{lower: append([]float64(nil), baseLo...), upper: append([]float64(nil), baseHi...), bound: math.Inf(-1)}
	open := &nodeHeap{root}
	heap.Init(open)

	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	stoppedEarly := false
	// unresolved is the smallest parent bound of the nodes whose LP hit
	// the pivot cap: their subtrees are neither searched nor pruned.
	unresolved := math.Inf(1)

	for open.Len() > 0 {
		if res.Nodes >= opts.maxNodes() || (!deadline.IsZero() && time.Now().After(deadline)) {
			stoppedEarly = true
			break
		}
		nd := heap.Pop(open).(*node)
		if nd.bound >= res.Objective-1e-9 {
			continue // dominated by the incumbent
		}
		res.Nodes++
		apply(nd)
		sol, err := solveLP(model)
		if err != nil {
			restore()
			return nil, err
		}
		res.LPIterations += sol.Iterations
		if sol.Status == lp.Unbounded && res.Nodes == 1 {
			restore()
			res.Status = Unbounded
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if sol.Status == lp.IterLimit {
			unresolved = math.Min(unresolved, nd.bound)
			continue
		}
		if sol.Status != lp.Optimal {
			continue // infeasible (or pathological) subtree: prune
		}
		if sol.Objective >= res.Objective-1e-9 {
			continue // bound prune
		}
		frac := mostFractional(sol.X, ints)
		if frac < 0 {
			// Integer feasible: new incumbent.
			res.X = append([]float64(nil), sol.X...)
			res.Objective = sol.Objective
			continue
		}
		if res.Nodes%diveEvery == 1 {
			if x, obj, ok := dive(model, ints, sol.X); ok && obj < res.Objective-1e-9 {
				res.X = x
				res.Objective = obj
			}
		}
		v := ints[frac]
		xv := sol.X[v]
		left := &node{lower: append([]float64(nil), nd.lower...), upper: append([]float64(nil), nd.upper...), bound: sol.Objective}
		left.upper[frac] = math.Floor(xv)
		right := &node{lower: append([]float64(nil), nd.lower...), upper: append([]float64(nil), nd.upper...), bound: sol.Objective}
		right.lower[frac] = math.Ceil(xv)
		heap.Push(open, left)
		heap.Push(open, right)
	}
	restore()

	res.Elapsed = time.Since(start)
	// The proven bound is the smallest bound among remaining open nodes
	// and unresolved ones; an unresolved node the final incumbent
	// dominates is pruned as if its LP had finished.
	res.Bound = res.Objective
	for _, nd := range *open {
		if nd.bound < res.Bound {
			res.Bound = nd.bound
		}
	}
	if unresolved < res.Objective-1e-9 {
		stoppedEarly = true
		res.Bound = math.Min(res.Bound, unresolved)
	}
	hasIncumbent := !math.IsInf(res.Objective, 1)
	switch {
	case hasIncumbent && !stoppedEarly:
		res.Status = Optimal
	case hasIncumbent:
		res.Status = Feasible
	case stoppedEarly:
		res.Status = Budget
	default:
		res.Status = Infeasible
	}
	return res, nil
}

// mostFractional returns the index (into ints) of the integer variable
// farthest from integrality, or -1 when all are integral.
func mostFractional(x []float64, ints []int) int {
	best, bestDist := -1, intTol
	for k, v := range ints {
		f := x[v] - math.Floor(x[v])
		d := math.Min(f, 1-f)
		if d > bestDist {
			bestDist = d
			best = k
		}
	}
	return best
}

// dive fixes every integer variable to the rounding of the relaxation
// value, solves the continuous rest, and returns the point when feasible.
func dive(model *lp.Model, ints []int, relax []float64) ([]float64, float64, bool) {
	saveLo := make([]float64, len(ints))
	saveHi := make([]float64, len(ints))
	for k, v := range ints {
		saveLo[k], saveHi[k] = model.Bounds(v)
		r := math.Round(relax[v])
		// Clamp the rounding into the node's box.
		if r < saveLo[k] {
			r = saveLo[k]
		}
		if r > saveHi[k] {
			r = saveHi[k]
		}
		model.SetBounds(v, r, r)
	}
	sol, err := solveLP(model)
	for k, v := range ints {
		model.SetBounds(v, saveLo[k], saveHi[k])
	}
	if err != nil || sol.Status != lp.Optimal {
		return nil, 0, false
	}
	return sol.X, sol.Objective, true
}
