// Package hungarian implements bipartite assignment algorithms used by the
// optimal one-to-one mapping solvers and by the exact branch and bound's
// one-to-one assignment bound:
//
//   - Solve: minimum-cost perfect assignment (the Hungarian method, in its
//     O(n²m) shortest-augmenting-path / Jonker-Volgenant form), used for
//     Theorem 1 where the cost of (task, machine) is -log(1 - f[i][u]);
//   - Bottleneck: min-max (bottleneck) assignment by binary search over the
//     sorted cost values with a matching feasibility test, used for the
//     Figure 9 optimal one-to-one baseline where x[i] is mapping-independent
//     and for the per-node assignment bound of internal/exact.
//
// Rows are "left" vertices (tasks), columns are "right" vertices (machines);
// rectangular problems with rows <= cols are supported: every row is
// assigned, columns may stay free.
//
// The package-level functions allocate per call and take [][]float64 —
// convenient for one-shot solves. Hot loops (the exact solver prices an
// assignment relaxation per search node) use a Solver: a reusable workspace
// over flat row-major matrices whose steady-state amortized cost is zero
// allocations per call (mirroring core.Pricer's rebind pattern; gated by
// TestSolverZeroAlloc).
package hungarian

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoPerfectMatching reports that no perfect assignment of all rows
// exists under the finite-cost pairs. Callers that use Bottleneck as a
// pruning bound (the exact solver) key "prune this node" off it with
// errors.Is.
var ErrNoPerfectMatching = errors.New("hungarian: no perfect assignment exists")

// Solver is a reusable workspace for the assignment algorithms. All methods
// take flat row-major cost matrices (cost[r*nc+c]) and reuse internal
// buffers, so a long-lived Solver reaches zero allocations per call once
// its buffers have grown to the largest problem seen. The returned assign
// slice is owned by the Solver and valid only until the next call; copy it
// to keep it. A Solver is not safe for concurrent use.
type Solver struct {
	// Jonker-Volgenant buffers (1-based virtual row/col 0).
	u, v, minv []float64
	way, p     []int
	used       []bool

	assign []int

	// Hopcroft-Karp buffers plus the implicit-edge threshold state: edges
	// are pairs with cost[r*nc+c] <= thr, so no adjacency lists are built.
	matchRow, matchCol, dist, queue []int
	cost                            []float64
	nr, nc                          int
	thr                             float64

	vals []float64 // sorted distinct finite costs (bottleneck search)
}

// NewSolver returns an empty workspace; buffers grow on first use.
func NewSolver() *Solver { return &Solver{} }

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// Solve returns an assignment row->col minimizing the total cost over the
// flat row-major nr×nc matrix, and that minimum. cost[r*nc+c] may be +Inf
// to forbid a pair. It requires nr <= nc and errors when no finite-cost
// perfect assignment of all rows exists. The returned slice is reused by
// the next call.
func (s *Solver) Solve(cost []float64, nr, nc int) ([]int, float64, error) {
	if nr == 0 {
		return nil, 0, nil
	}
	if nr > nc {
		return nil, 0, fmt.Errorf("hungarian: %d rows exceed %d columns", nr, nc)
	}
	if len(cost) < nr*nc {
		return nil, 0, fmt.Errorf("hungarian: cost has %d entries, want %d", len(cost), nr*nc)
	}

	const inf = math.MaxFloat64
	s.u = growF(s.u, nr+1)
	s.v = growF(s.v, nc+1)
	s.minv = growF(s.minv, nc+1)
	s.p = growI(s.p, nc+1)
	s.way = growI(s.way, nc+1)
	s.used = growB(s.used, nc+1)
	u, v, p, way := s.u, s.v, s.p, s.way
	for j := range u[:nr+1] {
		u[j] = 0
	}
	for j := range v[:nc+1] {
		v[j] = 0
		p[j] = 0
		way[j] = 0
	}

	for r := 1; r <= nr; r++ {
		p[0] = r
		j0 := 0
		minv, used := s.minv, s.used
		for j := 0; j <= nc; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			row := cost[(i0-1)*nc:]
			for j := 1; j <= nc; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 < 0 || delta == inf {
				return nil, 0, fmt.Errorf("hungarian: %w (row %d isolated by infinite costs)", ErrNoPerfectMatching, r-1)
			}
			for j := 0; j <= nc; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	s.assign = growI(s.assign, nr)
	assign := s.assign
	for j := 1; j <= nc; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
		}
	}
	total := 0.0
	for r := 0; r < nr; r++ {
		total += cost[r*nc+assign[r]]
	}
	if math.IsInf(total, 1) {
		return nil, 0, fmt.Errorf("hungarian: %w (assignment uses a forbidden pair)", ErrNoPerfectMatching)
	}
	return assign, total, nil
}

// Bottleneck returns an assignment row->col minimizing the maximum selected
// cost (min-max assignment) over the flat row-major nr×nc matrix, and that
// bottleneck value. It binary-searches the sorted distinct finite costs,
// testing each threshold with Hopcroft-Karp over the implicit edge set
// cost[r*nc+c] <= threshold. Errors wrap ErrNoPerfectMatching when no
// perfect assignment of all rows exists (all-infinite matrix included).
// The returned slice is reused by the next call.
func (s *Solver) Bottleneck(cost []float64, nr, nc int) ([]int, float64, error) {
	if nr == 0 {
		return nil, 0, nil
	}
	if nr > nc {
		return nil, 0, fmt.Errorf("hungarian: %d rows exceed %d columns", nr, nc)
	}
	if len(cost) < nr*nc {
		return nil, 0, fmt.Errorf("hungarian: cost has %d entries, want %d", len(cost), nr*nc)
	}
	s.vals = s.vals[:0]
	for r := 0; r < nr; r++ {
		for c := 0; c < nc; c++ {
			if v := cost[r*nc+c]; !math.IsInf(v, 1) && !math.IsNaN(v) {
				s.vals = append(s.vals, v)
			}
		}
	}
	if len(s.vals) == 0 {
		return nil, 0, fmt.Errorf("hungarian: %w (all costs are infinite)", ErrNoPerfectMatching)
	}
	sort.Float64s(s.vals)
	s.vals = dedupSorted(s.vals)

	s.cost, s.nr, s.nc = cost, nr, nc
	lo, hi := 0, len(s.vals)-1
	if s.matchThreshold(s.vals[hi]) < nr {
		return nil, 0, fmt.Errorf("hungarian: %w (even with all finite pairs)", ErrNoPerfectMatching)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if s.matchThreshold(s.vals[mid]) == nr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.matchThreshold(s.vals[lo]) // rebuild the witness matching at the optimum
	s.assign = growI(s.assign, nr)
	copy(s.assign, s.matchRow[:nr])
	return s.assign, s.vals[lo], nil
}

// matchThreshold computes a maximum matching over the implicit edges
// cost[r*nc+c] <= thr with Hopcroft-Karp and returns its size. The matching
// is left in matchRow/matchCol.
func (s *Solver) matchThreshold(thr float64) int {
	nr, nc := s.nr, s.nc
	s.matchRow = growI(s.matchRow, nr)
	s.matchCol = growI(s.matchCol, nc)
	s.dist = growI(s.dist, nr)
	s.queue = growI(s.queue, nr)
	for r := range s.matchRow {
		s.matchRow[r] = -1
	}
	for c := range s.matchCol {
		s.matchCol[c] = -1
	}
	s.thr = thr
	size := 0
	for s.hkBFS() {
		for r := 0; r < nr; r++ {
			if s.matchRow[r] == -1 && s.hkDFS(r) {
				size++
			}
		}
	}
	return size
}

func (s *Solver) hkBFS() bool {
	q := s.queue[:0]
	for r := 0; r < s.nr; r++ {
		if s.matchRow[r] == -1 {
			s.dist[r] = 0
			q = append(q, r)
		} else {
			s.dist[r] = math.MaxInt32
		}
	}
	found := false
	for len(q) > 0 {
		r := q[0]
		q = q[1:]
		row := s.cost[r*s.nc:]
		for c := 0; c < s.nc; c++ {
			if row[c] > s.thr {
				continue
			}
			r2 := s.matchCol[c]
			if r2 == -1 {
				found = true
			} else if s.dist[r2] == math.MaxInt32 {
				s.dist[r2] = s.dist[r] + 1
				q = append(q, r2)
			}
		}
	}
	return found
}

func (s *Solver) hkDFS(r int) bool {
	row := s.cost[r*s.nc:]
	for c := 0; c < s.nc; c++ {
		if row[c] > s.thr {
			continue
		}
		r2 := s.matchCol[c]
		if r2 == -1 || (s.dist[r2] == s.dist[r]+1 && s.hkDFS(r2)) {
			s.matchRow[r] = c
			s.matchCol[c] = r
			return true
		}
	}
	s.dist[r] = math.MaxInt32
	return false
}

// Solve returns an assignment row->col minimizing the total cost, and that
// minimum. cost[r][c] may be +Inf to forbid a pair. It requires
// len(cost) <= len(cost[0]) and returns an error when no finite-cost perfect
// assignment of all rows exists. One-shot wrapper over Solver.Solve.
func Solve(cost [][]float64) (assign []int, total float64, err error) {
	flat, nr, nc, err := flatten(cost)
	if err != nil || nr == 0 {
		return nil, 0, err
	}
	s := NewSolver()
	a, total, err := s.Solve(flat, nr, nc)
	if err != nil {
		return nil, 0, err
	}
	return append([]int(nil), a...), total, nil
}

// Bottleneck returns an assignment row->col minimizing the maximum selected
// cost (min-max assignment) and that bottleneck value. One-shot wrapper
// over Solver.Bottleneck.
func Bottleneck(cost [][]float64) (assign []int, bottleneck float64, err error) {
	flat, nr, nc, err := flatten(cost)
	if err != nil || nr == 0 {
		return nil, 0, err
	}
	s := NewSolver()
	a, bn, err := s.Bottleneck(flat, nr, nc)
	if err != nil {
		return nil, 0, err
	}
	return append([]int(nil), a...), bn, nil
}

func flatten(cost [][]float64) ([]float64, int, int, error) {
	nr := len(cost)
	if nr == 0 {
		return nil, 0, 0, nil
	}
	nc := len(cost[0])
	if nr > nc {
		return nil, 0, 0, fmt.Errorf("hungarian: %d rows exceed %d columns", nr, nc)
	}
	flat := make([]float64, 0, nr*nc)
	for r, row := range cost {
		if len(row) != nc {
			return nil, 0, 0, fmt.Errorf("hungarian: row %d has %d columns, want %d", r, len(row), nc)
		}
		flat = append(flat, row...)
	}
	return flat, nr, nc, nil
}

func dedupSorted(v []float64) []float64 {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
