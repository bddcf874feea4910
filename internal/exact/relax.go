// The one-to-one relaxation bound: under the one-to-one rule every unplaced
// task occupies its own still-free machine, so the min-max perfect
// assignment of unplaced tasks to free machines — each cell the exact
// landing price at the task's demand lower bound, off the Pricer's SoA
// rows — bounds every completion's period from below. internal/hungarian
// solves it; hungarian.ErrNoPerfectMatching proves the node infeasible.
//
// The bound runs behind a lossless filter: the bottleneck value exceeds the
// combinatorial bound's cheapest-landing maximum *iff* the min-landing
// assignment is not itself a matching, i.e. two unplaced tasks share an
// argmin machine. The prune decision's landing loop (prunes, bound.go)
// records each task's argmin for free — it scans every landing when this
// bound is on — so the matcher runs only after an O(n-k) duplicate scan
// finds a collision.
//
// The rule decides whether the bound exists, not a gate: the searcher
// builds it for one-to-one searches with the bound on
// (Options.DisableAssignBound ablates), and it runs at every node the
// combinatorial bound fails to prune. Its value is therefore a pure
// function of the node, like the rest of the bound. Under the Specialized
// and General rules distinct tasks may share a machine and the bound does
// not apply.
//
// Admissibility is fuzz-gated by FuzzAssignmentBound against the exhaustive
// completion oracle, like the combinatorial bound.
package exact

import (
	"errors"
	"math"

	"microfab/internal/hungarian"
)

// assignBound is one searcher's bottleneck-assignment workspace: the
// reusable matcher and flat scratch, private to the owning goroutine like
// the rest of the searcher.
type assignBound struct {
	hs   *hungarian.Solver
	cost []float64 // flat landing matrix: unplaced tasks × free machines
	cols []int     // column -> machine id

	// seen/stamp: O(1)-reset machine marks for the argmin-collision scan.
	seen  []int
	stamp int
}

func newAssignBound(m int) *assignBound {
	return &assignBound{hs: hungarian.NewSolver(), cols: make([]int, m), seen: make([]int, m)}
}

// assignmentBound returns the bottleneck-assignment bound of the node and
// true, or false when the bound cannot beat the combinatorial one: the
// unplaced tasks' cheapest-landing machines are pairwise distinct, so the
// min-landing assignment is itself a feasible matching and its value is
// exactly the cheapest-landing maximum prunes has already tested. +Inf proves
// the node infeasible — more unplaced tasks than free machines, or no
// perfect matching at all. Requires s.dlb and s.landArg filled for depth k
// (prunes' landing loop).
func (s *searcher) assignmentBound(k int) (float64, bool) {
	ab := s.ab
	n := len(s.order)
	cols := ab.cols[:0]
	for u := 0; u < s.m; u++ {
		if !s.used[u] {
			cols = append(cols, u)
		}
	}
	nr, nc := n-k, len(cols)
	if nr > nc {
		return math.Inf(1), true
	}
	// Every landArg is a feasible machine: a task with none has a +Inf
	// landing, which prunes before this bound runs.
	ab.stamp++
	collide := false
	for j := k; j < n && !collide; j++ {
		u := s.landArg[j]
		collide = ab.seen[u] == ab.stamp
		ab.seen[u] = ab.stamp
	}
	if !collide {
		return 0, false
	}
	if cap(ab.cost) < nr*nc {
		ab.cost = make([]float64, nr*nc)
	}
	cost := ab.cost[:nr*nc]
	for r := 0; r < nr; r++ {
		j := k + r
		s.pr.PriceAllAt(s.order[j], s.dlb[j], s.land)
		row := cost[r*nc:]
		for c, u := range cols {
			row[c] = s.land[u]
		}
	}
	_, b, err := ab.hs.Bottleneck(cost, nr, nc)
	if err != nil {
		if errors.Is(err, hungarian.ErrNoPerfectMatching) {
			return math.Inf(1), true
		}
		return 0, false
	}
	return b, true
}
