package lp

import "math"

// Numerical tolerances of the simplex.
const (
	pivotTol = 1e-9 // entries below this never pivot
	costTol  = 1e-9 // reduced costs above -costTol count as optimal
	feasTol  = 1e-7 // phase-1 objective below this means feasible
)

// defaultIterLimit bounds total pivots; generous for the model sizes the
// MIP produces (hundreds of rows).
const defaultIterLimit = 200000

// Solve optimizes the model with the two-phase primal simplex.
//
// Solve reuses scratch storage held by the model (see Model), so calls on
// one Model must not overlap; solve concurrently on Clones instead.
func (m *Model) Solve() (*Solution, error) {
	return m.SolveWithLimit(defaultIterLimit)
}

// SolveWithLimit is Solve with an explicit pivot cap. When the cap trips —
// including mid-phase-1, before a feasible basis exists — the returned
// solution carries Status IterLimit with a zero X vector, never a partial
// tableau read-out. Like Solve, it is for sequential use on a given Model.
func (m *Model) SolveWithLimit(iterLimit int) (*Solution, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.ws == nil {
		m.ws = &workspace{}
	}
	ws := m.ws
	std, ok := m.standardize(ws)
	if !ok {
		// Models infeasible on their bounds alone are reported as
		// Infeasible rather than an error: the MIP prunes such nodes.
		return &Solution{Status: Infeasible, X: make([]float64, m.numVars)}, nil
	}
	t := &ws.tab
	t.load(std)
	st, iters := t.run(iterLimit)
	sol := &Solution{Status: st, X: make([]float64, m.numVars), Iterations: iters}
	if st != Optimal {
		return sol, nil
	}
	// Map the basic solution back to model space: x = lower + x' plus
	// fixed-variable substitutions.
	xs := grow(ws.xs, t.nStruct)
	ws.xs = xs
	clear(xs)
	for r, b := range t.basis {
		if b < t.nStruct {
			xs[b] = t.a[r][t.nCols]
		}
	}
	for v := 0; v < m.numVars; v++ {
		if std.fixed[v] {
			sol.X[v] = m.lower[v]
			continue
		}
		sol.X[v] = m.lower[v] + xs[std.col[v]]
	}
	for v := 0; v < m.numVars; v++ {
		sol.Objective += float64(m.obj[v] * sol.X[v])
	}
	return sol, nil
}

// workspace is a Model's solve scratch: the standard form with a flat
// backing store for its rows, the tableau, and the structural solution
// vector. It grows to the largest model solved and is reused by every
// later solve, so the simplex allocates nothing but the Solution it
// returns.
type workspace struct {
	std   standard
	coefs []Coef // backing store of std.rows
	ends  []int  // std.rows[r] ends at coefs[ends[r]]
	tab   tableau
	xs    []float64
}

// grow returns s resliced to length n, reallocated when its capacity is
// short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// standard holds the model in "min c x, A x {<=,=} b, 0 <= x (<= ub rows)"
// form after substitution of fixed variables and lower-bound shifting.
type standard struct {
	nVars  int // shifted structural variables
	obj    []float64
	rows   [][]Coef
	senses []Sense
	rhs    []float64
	// col maps model variable -> structural column (undefined when fixed).
	col   []int
	fixed []bool
}

// standardize substitutes fixed variables (lo == hi), shifts the remaining
// ones by their lower bound, and materializes finite upper bounds as <=
// rows. GE rows are converted to LE by negation, so the tableau only sees
// LE and EQ. The result lives in ws. It reports false when the model is
// infeasible on its bounds alone: an empty domain, or a row whose
// variables are all fixed and which does not hold.
func (m *Model) standardize(ws *workspace) (*standard, bool) {
	s := &ws.std
	s.col = grow(s.col, m.numVars)
	s.fixed = grow(s.fixed, m.numVars)
	s.nVars = 0
	for v := 0; v < m.numVars; v++ {
		lo, hi := m.lower[v], m.upper[v]
		if lo > hi {
			return nil, false
		}
		s.fixed[v] = lo == hi
		if s.fixed[v] {
			continue
		}
		s.col[v] = s.nVars
		s.nVars++
	}
	s.obj = grow(s.obj, s.nVars)
	for v := 0; v < m.numVars; v++ {
		if !s.fixed[v] {
			s.obj[s.col[v]] = m.obj[v]
		}
	}
	ws.coefs, ws.ends = ws.coefs[:0], ws.ends[:0]
	s.senses, s.rhs = s.senses[:0], s.rhs[:0]
	for r, row := range m.rows {
		start := len(ws.coefs)
		rhs := m.rhs[r]
		for _, c := range row {
			// Substituting x = lo + x' moves c·lo to the RHS for both
			// fixed and shifted variables.
			rhs -= float64(c.Val * m.lower[c.Var])
			if s.fixed[c.Var] {
				continue
			}
			ws.coefs = append(ws.coefs, Coef{Var: s.col[c.Var], Val: c.Val})
		}
		coefs := ws.coefs[start:]
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
				return nil, false
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
		ws.ends = append(ws.ends, len(ws.coefs))
		s.senses = append(s.senses, sense)
		s.rhs = append(s.rhs, rhs)
	}
	// Finite upper bounds become x' <= hi - lo rows.
	for v := 0; v < m.numVars; v++ {
		if s.fixed[v] || math.IsInf(m.upper[v], 1) {
			continue
		}
		ws.coefs = append(ws.coefs, Coef{Var: s.col[v], Val: 1})
		ws.ends = append(ws.ends, len(ws.coefs))
		s.senses = append(s.senses, LE)
		s.rhs = append(s.rhs, m.upper[v]-m.lower[v])
	}
	// Cut the row views only now: appends above may move the store.
	s.rows = s.rows[:0]
	start := 0
	for _, end := range ws.ends {
		s.rows = append(s.rows, ws.coefs[start:end:end])
		start = end
	}
	return s, true
}

// tableau is the dense simplex tableau: a is nRows × (nCols+1) with the RHS
// in the last column; basis[i] is the basic column of row i. Its slices are
// views into storage kept across solves, refilled in place by load. A pivot
// touches only the pivot row's nonzero columns (nz) of the rows whose entry
// in the entering column is nonzero (rows, mult); the ratio test records
// those rows as it reads the column, so each pivot reads it once.
type tableau struct {
	nRows, nCols int
	nStruct      int // structural columns (prefix of 0..nStruct-1)
	nArt         int
	artStart     int
	a            [][]float64
	store        []float64 // flat backing store of a
	basis        []int
	// obj is the structural objective: the phase-2 cost, zero on slack
	// and artificial columns.
	obj []float64
	// cost is the current phase's cost row and z its reduced-cost row,
	// with -objective in the RHS slot.
	cost, z []float64
	// nz lists the nonzero columns of the last pivot row.
	nz []int32
	// rows lists, in ascending order, the rows with a nonzero entry in
	// the entering column, and mult[k] is row rows[k]'s entry there.
	rows []int32
	mult []float64
}

// load fills t with the initial tableau of s. Columns: structural, one
// slack per LE row, one artificial per row that needs one (EQ rows and
// negative-RHS LE rows), then the RHS.
func (t *tableau) load(s *standard) {
	nRows := len(s.rows)
	nSlack, nArt := 0, 0
	for r, sense := range s.senses {
		if sense == LE {
			nSlack++
		}
		if needsArtificial(sense, s.rhs[r]) {
			nArt++
		}
	}
	t.nRows, t.nStruct, t.nArt = nRows, s.nVars, nArt
	t.artStart = s.nVars + nSlack
	t.nCols = t.artStart + nArt
	width := t.nCols + 1
	t.store = grow(t.store, nRows*width)
	clear(t.store)
	t.a = t.a[:0]
	for r := 0; r < nRows; r++ {
		t.a = append(t.a, t.store[r*width:(r+1)*width:(r+1)*width])
	}
	t.basis = grow(t.basis, nRows)
	t.rows = grow(t.rows, nRows)[:0]
	t.mult = grow(t.mult, nRows)[:0]

	slack := s.nVars
	art := t.artStart
	for r, row := range t.a {
		for _, c := range s.rows[r] {
			row[c.Var] += c.Val
		}
		slackCol := -1
		if s.senses[r] == LE {
			slackCol = slack
			row[slack] = 1
			slack++
		}
		rhs := s.rhs[r]
		if rhs < 0 {
			// Negate so every RHS is nonnegative.
			for j := range row {
				row[j] = -row[j]
			}
			rhs = -rhs
		}
		row[t.nCols] = rhs
		// The initial basic variable is the slack when its coefficient is
		// +1, otherwise an artificial.
		if needsArtificial(s.senses[r], s.rhs[r]) {
			row[art] = 1
			t.basis[r] = art
			art++
		} else {
			t.basis[r] = slackCol
		}
	}
	t.obj = s.obj
	t.cost = grow(t.cost, t.nCols)
	t.z = grow(t.z, width)
}

// needsArtificial reports whether a standard-form row starts with an
// artificial basic variable: an EQ row has no slack, and a negative-RHS LE
// row's slack turns -1 when the row is negated.
func needsArtificial(sense Sense, rhs float64) bool {
	return sense != LE || rhs < 0
}

// run performs phase 1 (if artificials exist) and phase 2, leaving the
// optimal basis in the tableau; it returns the status and the pivot count.
func (t *tableau) run(iterLimit int) (Status, int) {
	iters := 0
	if t.nArt > 0 {
		// Phase 1: minimize the sum of artificials.
		clear(t.cost[:t.artStart])
		for j := t.artStart; j < t.nCols; j++ {
			t.cost[j] = 1
		}
		t.priceOut()
		st, n := t.iterate(iterLimit, true)
		iters += n
		if st == IterLimit {
			return IterLimit, iters
		}
		if -t.z[t.nCols] > feasTol { // phase-1 optimum is -z[rhs]
			return Infeasible, iters
		}
		t.evictArtificials()
	}
	// Phase 2 on the (possibly row-reduced) tableau, artificials banned.
	copy(t.cost, t.obj)
	clear(t.cost[len(t.obj):])
	t.priceOut()
	st, n := t.iterate(iterLimit-iters, false)
	return st, iters + n
}

// priceOut builds the reduced-cost row z for the current cost row:
// z_j = c_j - Σ_basic c_B · row, with -objective in the RHS slot.
func (t *tableau) priceOut() {
	z := t.z
	copy(z, t.cost)
	z[t.nCols] = 0
	for r, b := range t.basis {
		cb := t.cost[b]
		if cb == 0 {
			continue
		}
		row := t.a[r]
		for j := 0; j <= t.nCols; j++ {
			z[j] -= float64(cb * row[j])
		}
	}
}

// iterate pivots until optimal/unbounded or the iteration cap. Pricing
// scans z[:limit]: every column in phase 1, where artificials are basic or
// zero-reduced-cost and so never win, and no artificial in phase 2, where
// they are banned from re-entering. The ratio test is the only pass over
// the entering column: it also records the rows pivot eliminates.
func (t *tableau) iterate(iterLimit int, phase1 bool) (Status, int) {
	z := t.z
	limit := t.artStart
	if phase1 {
		limit = t.nCols
	}
	stall := 0
	lastObj := math.Inf(1)
	for iter := 0; ; iter++ {
		if iter >= iterLimit {
			return IterLimit, iter
		}
		bland := stall > 2*t.nRows+50
		enter := -1
		best := -costTol
		for j, zj := range z[:limit] {
			if zj < best {
				if bland {
					enter = j
					break
				}
				best = zj
				enter = j
			}
		}
		if enter < 0 {
			return Optimal, iter
		}
		// Ratio test (Bland ties on the smallest basis column).
		leave := -1
		bestRatio := math.Inf(1)
		rows, mult := t.rows[:0], t.mult[:0]
		for r, row := range t.a {
			arj := row[enter]
			if arj == 0 {
				continue
			}
			rows = append(rows, int32(r))
			mult = append(mult, arj)
			if arj <= pivotTol {
				continue
			}
			ratio := row[t.nCols] / arj
			if ratio < bestRatio-1e-12 ||
				(ratio < bestRatio+1e-12 && (leave < 0 || t.basis[r] < t.basis[leave])) {
				bestRatio = ratio
				leave = r
			}
		}
		t.rows, t.mult = rows, mult
		if leave < 0 {
			return Unbounded, iter
		}
		t.pivot(leave, enter, rows, mult, z)
		obj := -z[t.nCols]
		if obj < lastObj-1e-12 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// pivot makes column c basic in row r, updating the cost row z (nil: no
// cost row) and the rows listed in rows, which must be every row with a
// nonzero entry in column c, each with that entry in mult (r may be among
// them). Every other row has a zero there and is left as it is. Only the
// pivot row's nonzero columns are updated: x − f·0 == x, so skipping its
// zeros leaves every nonzero entry bit-identical to the dense update (only
// the sign of a zero can differ, which no comparison sees).
func (t *tableau) pivot(r, c int, rows []int32, mult []float64, z []float64) {
	row := t.a[r]
	inv := 1 / row[c]
	nz := t.nz[:0]
	for j, v := range row {
		if v != 0 {
			row[j] = v * inv
			nz = append(nz, int32(j))
		}
	}
	row[c] = 1 // exact
	t.nz = nz
	for k, i := range rows {
		if int(i) == r {
			continue
		}
		f := mult[k]
		ri := t.a[i]
		for _, j := range nz {
			ri[j] -= float64(f * row[j])
		}
		ri[c] = 0
	}
	if z != nil {
		if f := z[c]; f != 0 {
			for _, j := range nz {
				z[j] -= float64(f * row[j])
			}
			z[c] = 0
		}
	}
	t.basis[r] = c
}

// evictArtificials removes basic artificials after phase 1 by pivoting on
// the largest-magnitude non-artificial column of their row — the stable
// choice under degeneracy, keeping the pivotTol discipline from amplifying
// round-off the way a first-over-threshold pick can — or deleting the row
// when every such entry is below pivotTol (redundant constraint). Phase 2
// prices its cost row from scratch, so these pivots update no cost row.
func (t *tableau) evictArtificials() {
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
			rows, mult := t.rows[:0], t.mult[:0]
			for i, ri := range t.a {
				if f := ri[best]; f != 0 {
					rows = append(rows, int32(i))
					mult = append(mult, f)
				}
			}
			t.rows, t.mult = rows, mult
			t.pivot(r, best, rows, mult, nil)
			r++
			continue
		}
		// Redundant row: drop it.
		t.a = append(t.a[:r], t.a[r+1:]...)
		t.basis = append(t.basis[:r], t.basis[r+1:]...)
		t.nRows--
	}
}
