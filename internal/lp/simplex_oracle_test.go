package lp

import (
	"fmt"
	"math"
)

// This file keeps the simplex as it was before the sparse-row pivot and the
// reused workspace: cold-allocating standardization, a freshly allocated
// dense tableau per solve, and a pivot that updates every column of every
// row. It is the bit-identical oracle the production kernels are tested
// against (TestSimplexMatchesDenseOracle); nothing outside tests uses it.

// denseSolve is SolveWithLimit on the dense oracle path.
func (m *Model) denseSolve(iterLimit int) (*Solution, error) {
	if m.err != nil {
		return nil, m.err
	}
	std, err := m.denseStandardize()
	if err != nil {
		return &Solution{Status: Infeasible, X: make([]float64, m.numVars)}, nil
	}
	t := newDenseTableau(std)
	sol := t.run(iterLimit)
	return m.denseUnstandardize(std, sol), nil
}

// denseUnstandardize maps a tableau solution back to model space: x = lower + x'
// plus fixed-variable substitutions. Non-optimal solutions get a zero X.
func (m *Model) denseUnstandardize(std *standard, sol *Solution) *Solution {
	if sol.Status != Optimal {
		sol.X = make([]float64, m.numVars)
		sol.Objective = 0
		return sol
	}
	x := make([]float64, m.numVars)
	for v := 0; v < m.numVars; v++ {
		if std.fixed[v] {
			x[v] = m.lower[v]
			continue
		}
		x[v] = m.lower[v] + sol.X[std.col[v]]
	}
	obj := 0.0
	for v := 0; v < m.numVars; v++ {
		obj += m.obj[v] * x[v]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Iterations: sol.Iterations}
}

// denseStandardize substitutes fixed variables (lo == hi), shifts the remaining
// ones by their lower bound, and materializes finite upper bounds as <=
// rows. GE rows are converted to LE by negation, so the tableau only sees
// LE and EQ.
func (m *Model) denseStandardize() (*standard, error) {
	s := &standard{
		col:   make([]int, m.numVars),
		fixed: make([]bool, m.numVars),
	}
	for v := 0; v < m.numVars; v++ {
		lo, hi := m.lower[v], m.upper[v]
		if lo > hi {
			return nil, fmt.Errorf("lp: variable %s has empty domain [%v,%v]", m.Name(v), lo, hi)
		}
		if lo == hi {
			s.fixed[v] = true
			continue
		}
		s.col[v] = s.nVars
		s.nVars++
	}
	s.obj = make([]float64, s.nVars)
	for v := 0; v < m.numVars; v++ {
		if !s.fixed[v] {
			s.obj[s.col[v]] = m.obj[v]
		}
	}
	for r, row := range m.rows {
		var coefs []Coef
		rhs := m.rhs[r]
		for _, c := range row {
			// Substituting x = lo + x' moves c·lo to the RHS for both
			// fixed and shifted variables.
			rhs -= c.Val * m.lower[c.Var]
			if s.fixed[c.Var] {
				continue
			}
			coefs = append(coefs, Coef{Var: s.col[c.Var], Val: c.Val})
		}
		sense := m.senses[r]
		if len(coefs) == 0 {
			// Fully substituted row: check it holds.
			ok := false
			switch sense {
			case LE:
				ok = 0 <= rhs+feasTol
			case GE:
				ok = 0 >= rhs-feasTol
			case EQ:
				ok = math.Abs(rhs) <= feasTol
			}
			if !ok {
				return nil, fmt.Errorf("lp: row %d infeasible after substitution", r)
			}
			continue
		}
		if sense == GE {
			for i := range coefs {
				coefs[i].Val = -coefs[i].Val
			}
			rhs = -rhs
			sense = LE
		}
		s.rows = append(s.rows, coefs)
		s.senses = append(s.senses, sense)
		s.rhs = append(s.rhs, rhs)
	}
	// Finite upper bounds become x' <= hi - lo rows.
	for v := 0; v < m.numVars; v++ {
		if s.fixed[v] || math.IsInf(m.upper[v], 1) {
			continue
		}
		s.rows = append(s.rows, []Coef{{Var: s.col[v], Val: 1}})
		s.senses = append(s.senses, LE)
		s.rhs = append(s.rhs, m.upper[v]-m.lower[v])
	}
	return s, nil
}

// denseTableau is the dense simplex tableau: a is nRows × (nCols+1) with the RHS
// in the last column; basis[i] is the basic column of row i.
type denseTableau struct {
	nRows, nCols int
	nStruct      int // structural columns (prefix of 0..nStruct-1)
	nArt         int
	artStart     int
	a            [][]float64
	basis        []int
	// phase2cost is the structural objective padded with zeros for slack
	// and artificial columns.
	phase2cost []float64
}

func newDenseTableau(s *standard) *denseTableau {
	nRows := len(s.rows)
	// Columns: structural, one slack per LE row, one artificial per row
	// that needs one (negative-RHS LE rows and EQ rows).
	nSlack := 0
	for _, sense := range s.senses {
		if sense == LE {
			nSlack++
		}
	}
	t := &denseTableau{nRows: nRows, nStruct: s.nVars}
	slackStart := s.nVars
	t.artStart = s.nVars + nSlack
	// Worst case: an artificial for every row.
	t.nCols = t.artStart + nRows
	width := t.nCols + 1
	t.a = make([][]float64, nRows)
	t.basis = make([]int, nRows)

	slack := 0
	art := 0
	for r := 0; r < nRows; r++ {
		row := make([]float64, width)
		for _, c := range s.rows[r] {
			row[c.Var] += c.Val
		}
		rhs := s.rhs[r]
		var slackCol = -1
		if s.senses[r] == LE {
			slackCol = slackStart + slack
			row[slackCol] = 1
			slack++
		}
		if rhs < 0 {
			// Negate so every RHS is nonnegative.
			for j := range row {
				row[j] = -row[j]
			}
			rhs = -rhs
			row[t.nCols] = rhs
		} else {
			row[t.nCols] = rhs
		}
		// Pick the initial basic variable: the slack if its coefficient
		// is +1, otherwise an artificial.
		if slackCol >= 0 && row[slackCol] == 1 {
			t.basis[r] = slackCol
		} else {
			ac := t.artStart + art
			art++
			row[ac] = 1
			t.basis[r] = ac
		}
		t.a[r] = row
	}
	t.nArt = art
	// Trim unused artificial columns.
	used := t.artStart + art
	for r := range t.a {
		rhs := t.a[r][t.nCols]
		t.a[r] = append(t.a[r][:used], rhs)
	}
	t.nCols = used
	t.phase2cost = make([]float64, t.nCols)
	copy(t.phase2cost, s.obj)
	return t
}

// run performs phase 1 (if artificials exist) and phase 2, returning the
// solution in structural-column space.
func (t *denseTableau) run(iterLimit int) *Solution {
	iters := 0
	if t.nArt > 0 {
		// Phase 1: minimize the sum of artificials.
		cost := make([]float64, t.nCols)
		for j := t.artStart; j < t.nCols; j++ {
			cost[j] = 1
		}
		z := t.priceOut(cost)
		st, n := t.iterate(z, cost, iterLimit, true)
		iters += n
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iterations: iters}
		}
		if -z[t.nCols] > feasTol { // phase-1 optimum is -z[rhs]
			return &Solution{Status: Infeasible, Iterations: iters}
		}
		t.evictArtificials()
	}
	// Phase 2 on the (possibly row-reduced) tableau, artificials banned.
	cost := make([]float64, t.nCols)
	copy(cost, t.phase2cost)
	z := t.priceOut(cost)
	st, n := t.iterate(z, cost, iterLimit-iters, false)
	iters += n
	if st != Optimal {
		return &Solution{Status: st, Iterations: iters}
	}
	return t.extract(z, iters)
}

// extract reads the optimal basic solution out of the tableau.
func (t *denseTableau) extract(z []float64, iters int) *Solution {
	x := make([]float64, t.nStruct)
	for r, b := range t.basis {
		if b < t.nStruct {
			x[b] = t.a[r][t.nCols]
		}
	}
	return &Solution{Status: Optimal, Objective: -z[t.nCols], X: x, Iterations: iters}
}

// priceOut builds the reduced-cost row z (length nCols+1) for the given
// cost vector: z_j = c_j - Σ_basic c_B · row, with -objective in the RHS
// slot.
func (t *denseTableau) priceOut(cost []float64) []float64 {
	z := make([]float64, t.nCols+1)
	copy(z, cost)
	for r, b := range t.basis {
		cb := cost[b]
		if cb == 0 {
			continue
		}
		row := t.a[r]
		for j := 0; j <= t.nCols; j++ {
			z[j] -= cb * row[j]
		}
	}
	return z
}

// iterate pivots until optimal/unbounded or the iteration cap. banArt bans
// artificial columns from entering (used in both phases; in phase 1 they
// are already basic or zero-reduced-cost and re-entering them is useless).
func (t *denseTableau) iterate(z, cost []float64, iterLimit int, phase1 bool) (Status, int) {
	_ = cost
	stall := 0
	lastObj := math.Inf(1)
	for iter := 0; ; iter++ {
		if iter >= iterLimit {
			return IterLimit, iter
		}
		bland := stall > 2*t.nRows+50
		enter := -1
		best := -costTol
		for j := 0; j < t.nCols; j++ {
			if !phase1 && j >= t.artStart {
				break // artificials never re-enter in phase 2
			}
			if z[j] < best {
				if bland {
					enter = j
					break
				}
				best = z[j]
				enter = j
			}
		}
		if enter < 0 {
			return Optimal, iter
		}
		// Ratio test (Bland ties on the smallest basis column).
		leave := -1
		bestRatio := math.Inf(1)
		for r := 0; r < t.nRows; r++ {
			arj := t.a[r][enter]
			if arj <= pivotTol {
				continue
			}
			ratio := t.a[r][t.nCols] / arj
			if ratio < bestRatio-1e-12 ||
				(ratio < bestRatio+1e-12 && (leave < 0 || t.basis[r] < t.basis[leave])) {
				bestRatio = ratio
				leave = r
			}
		}
		if leave < 0 {
			return Unbounded, iter
		}
		t.pivot(leave, enter, z)
		obj := -z[t.nCols]
		if obj < lastObj-1e-12 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// pivot makes column c basic in row r, updating all rows and the cost row z.
func (t *denseTableau) pivot(r, c int, z []float64) {
	row := t.a[r]
	p := row[c]
	inv := 1 / p
	for j := 0; j <= t.nCols; j++ {
		row[j] *= inv
	}
	row[c] = 1 // exact
	for i := 0; i < t.nRows; i++ {
		if i == r {
			continue
		}
		f := t.a[i][c]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := 0; j <= t.nCols; j++ {
			ri[j] -= f * row[j]
		}
		ri[c] = 0
	}
	if f := z[c]; f != 0 {
		for j := 0; j <= t.nCols; j++ {
			z[j] -= f * row[j]
		}
		z[c] = 0
	}
	t.basis[r] = c
}

// evictArtificials removes basic artificials after phase 1 by pivoting on
// the largest-magnitude non-artificial column of their row — the stable
// choice under degeneracy, keeping the pivotTol discipline from amplifying
// round-off the way a first-over-threshold pick can — or deleting the row
// when every such entry is below pivotTol (redundant constraint). One
// scratch cost row is shared across all evictions.
func (t *denseTableau) evictArtificials() {
	var scratch []float64
	for r := 0; r < t.nRows; {
		if t.basis[r] < t.artStart {
			r++
			continue
		}
		best, bestAbs := -1, pivotTol
		for j := 0; j < t.artStart; j++ {
			if a := math.Abs(t.a[r][j]); a > bestAbs {
				best, bestAbs = j, a
			}
		}
		if best >= 0 {
			if scratch == nil {
				scratch = make([]float64, t.nCols+1)
			}
			t.pivot(r, best, scratch)
			r++
			continue
		}
		// Redundant row: drop it.
		t.a = append(t.a[:r], t.a[r+1:]...)
		t.basis = append(t.basis[:r], t.basis[r+1:]...)
		t.nRows--
	}
}

// DefaultIterLimit is the pivot cap Solve applies.
const DefaultIterLimit = defaultIterLimit

// TableauRows is the row count of m's tableau after its last solve: the
// standard form's rows less those evictArtificials deleted as redundant.
func TableauRows(m *Model) int { return m.ws.tab.nRows }

// DenseSolve exposes the oracle to the external test package, which can
// import model builders (milp) that themselves import lp.
func DenseSolve(m *Model, iterLimit int) (*Solution, error) { return m.denseSolve(iterLimit) }

// DiffSolution reports how got differs from want, bit for bit, or "" when
// they are identical: same status and pivot count, and the same
// math.Float64bits for the objective and every X[v].
func DiffSolution(got, want *Solution) string {
	if got.Status != want.Status || got.Iterations != want.Iterations {
		return fmt.Sprintf("status/pivots %v/%d, want %v/%d", got.Status, got.Iterations, want.Status, want.Iterations)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Sprintf("objective %v, want %v", got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) {
		return fmt.Sprintf("len(X) %d, want %d", len(got.X), len(want.X))
	}
	for v := range got.X {
		if math.Float64bits(got.X[v]) != math.Float64bits(want.X[v]) {
			return fmt.Sprintf("X[%d] = %v, want %v", v, got.X[v], want.X[v])
		}
	}
	return ""
}
