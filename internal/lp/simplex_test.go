package lp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func requireStatus(t *testing.T, sol *Solution, want Status) {
	t.Helper()
	if sol.Status != want {
		t.Fatalf("status = %v, want %v", sol.Status, want)
	}
}

func TestSolveSimple2D(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6, x,y>=0  → min -(x+y), opt at (1.6,1.2) = 2.8
	m := NewModel(2)
	m.SetObj(0, -1)
	m.SetObj(1, -1)
	m.AddRow([]Coef{{0, 1}, {1, 2}}, LE, 4)
	m.AddRow([]Coef{{0, 3}, {1, 1}}, LE, 6)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Optimal)
	if math.Abs(sol.Objective-(-2.8)) > 1e-8 {
		t.Fatalf("objective = %v, want -2.8", sol.Objective)
	}
	if math.Abs(sol.X[0]-1.6) > 1e-8 || math.Abs(sol.X[1]-1.2) > 1e-8 {
		t.Fatalf("x = %v, want (1.6, 1.2)", sol.X)
	}
}

func TestSolveEquality(t *testing.T) {
	// min x+y s.t. x+y=3, x-y>=1 → (2,1), obj 3.
	m := NewModel(2)
	m.SetObj(0, 1)
	m.SetObj(1, 1)
	m.AddRow([]Coef{{0, 1}, {1, 1}}, EQ, 3)
	m.AddRow([]Coef{{0, 1}, {1, -1}}, GE, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Optimal)
	if math.Abs(sol.Objective-3) > 1e-8 {
		t.Fatalf("objective = %v, want 3", sol.Objective)
	}
	if math.Abs(sol.X[0]+sol.X[1]-3) > 1e-8 {
		t.Fatalf("x+y = %v, want 3", sol.X[0]+sol.X[1])
	}
	if sol.X[0]-sol.X[1] < 1-1e-8 {
		t.Fatalf("x-y = %v, want >= 1", sol.X[0]-sol.X[1])
	}
}

func TestSolveInfeasible(t *testing.T) {
	m := NewModel(1)
	m.AddRow([]Coef{{0, 1}}, GE, 5)
	m.AddRow([]Coef{{0, 1}}, LE, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Infeasible)
}

func TestSolveUnbounded(t *testing.T) {
	m := NewModel(1)
	m.SetObj(0, -1) // min -x, x >= 0, no upper constraint
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Unbounded)
}

func TestSolveBounds(t *testing.T) {
	// min -x with x in [2, 7] → x=7.
	m := NewModel(1)
	m.SetObj(0, -1)
	m.SetBounds(0, 2, 7)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Optimal)
	if math.Abs(sol.X[0]-7) > 1e-8 {
		t.Fatalf("x = %v, want 7", sol.X[0])
	}
}

func TestSolveFixedVariableSubstitution(t *testing.T) {
	// x fixed at 2; min y s.t. y >= 10 - 3x → y = 4.
	m := NewModel(2)
	m.SetBounds(0, 2, 2)
	m.SetObj(1, 1)
	m.AddRow([]Coef{{1, 1}, {0, 3}}, GE, 10)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Optimal)
	if math.Abs(sol.X[0]-2) > 1e-12 || math.Abs(sol.X[1]-4) > 1e-8 {
		t.Fatalf("x = %v, want (2, 4)", sol.X)
	}
}

func TestSolveEmptyDomainIsInfeasible(t *testing.T) {
	m := NewModel(1)
	m.SetBounds(0, 3, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Infeasible)
}

func TestSolveDegenerate(t *testing.T) {
	// A classically degenerate LP (multiple identical corners); Bland must
	// terminate. min -0.75x1 + 150x2 - 0.02x3 + 6x4 (Beale's cycling example).
	m := NewModel(4)
	m.SetObj(0, -0.75)
	m.SetObj(1, 150)
	m.SetObj(2, -0.02)
	m.SetObj(3, 6)
	m.AddRow([]Coef{{0, 0.25}, {1, -60}, {2, -1.0 / 25}, {3, 9}}, LE, 0)
	m.AddRow([]Coef{{0, 0.5}, {1, -90}, {2, -1.0 / 50}, {3, 3}}, LE, 0)
	m.AddRow([]Coef{{2, 1}}, LE, 1)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Optimal)
	if math.Abs(sol.Objective-(-0.05)) > 1e-8 {
		t.Fatalf("objective = %v, want -0.05", sol.Objective)
	}
}

// vertexEnumerate brute-forces tiny LPs (n vars, all-LE rows, x>=0) by
// enumerating all basic solutions from row subsets; returns the best
// feasible objective, or +Inf when none.
func vertexEnumerate(obj []float64, rows [][]float64, rhs []float64) float64 {
	n := len(obj)
	var all [][]float64
	var allB []float64
	for i, r := range rows {
		all = append(all, r)
		allB = append(allB, rhs[i])
	}
	// Add axis planes x_i = 0.
	for i := 0; i < n; i++ {
		r := make([]float64, n)
		r[i] = 1
		all = append(all, r)
		allB = append(allB, 0)
	}
	feasible := func(x []float64) bool {
		for i, r := range rows {
			s := 0.0
			for j := range x {
				s += r[j] * x[j]
			}
			if s > rhs[i]+1e-7 {
				return false
			}
		}
		for _, v := range x {
			if v < -1e-7 {
				return false
			}
		}
		return true
	}
	best := math.Inf(1)
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			A := make([][]float64, n)
			b := make([]float64, n)
			for i, ri := range idx {
				A[i] = append([]float64(nil), all[ri]...)
				b[i] = allB[ri]
			}
			x, ok := gauss(A, b)
			if !ok || !feasible(x) {
				return
			}
			o := 0.0
			for j := range x {
				o += obj[j] * x[j]
			}
			if o < best {
				best = o
			}
			return
		}
		for i := start; i < len(all); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

func gauss(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		p := col
		for r := col; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-10 {
			return nil, false
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = b[i] / a[i][i]
	}
	return x, true
}

func TestSolveAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(2) // 2..3 vars
		k := 2 + rng.Intn(3) // 2..4 rows
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = rng.Float64()*4 - 2
		}
		rows := make([][]float64, k)
		rhs := make([]float64, k)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				rows[i][j] = rng.Float64() * 3
			}
			rhs[i] = 1 + rng.Float64()*5
		}
		// Bound the feasible region so the LP is never unbounded.
		box := make([]float64, n)
		for j := range box {
			box[j] = 1
		}
		rows = append(rows, box)
		rhs = append(rhs, 10)

		m := NewModel(n)
		for j := range obj {
			m.SetObj(j, obj[j])
		}
		for i := range rows {
			var cs []Coef
			for j, v := range rows[i] {
				cs = append(cs, Coef{j, v})
			}
			m.AddRow(cs, LE, rhs[i])
		}
		sol, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		requireStatus(t, sol, Optimal)
		want := vertexEnumerate(obj, rows, rhs)
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: simplex %v != vertex enumeration %v", trial, sol.Objective, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewModel(2)
	m.SetObj(0, 1)
	m.AddRow([]Coef{{0, 1}, {1, 1}}, GE, 2)
	c := m.Clone()
	c.SetBounds(0, 5, 5)
	if lo, _ := m.Bounds(0); lo != 0 {
		t.Fatalf("clone mutated parent bounds: lo=%v", lo)
	}
	if c.NumRows() != m.NumRows() {
		t.Fatalf("rows differ after clone")
	}
}

func TestAddRowMergesDuplicates(t *testing.T) {
	m := NewModel(1)
	m.SetObj(0, 1)
	m.AddRow([]Coef{{0, 1}, {0, 2}}, GE, 6) // 3x >= 6
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireStatus(t, sol, Optimal)
	if math.Abs(sol.X[0]-2) > 1e-8 {
		t.Fatalf("x = %v, want 2", sol.X[0])
	}
}

// cloneTestModel is a bounded LP with every row sense, big enough that its
// solves pivot through phase 1 and phase 2.
func cloneTestModel() *Model {
	rng := rand.New(rand.NewSource(5))
	const n = 12
	m := NewModel(n)
	for v := 0; v < n; v++ {
		m.SetObj(v, rng.Float64()*2-1)
		m.SetBounds(v, 0, 1+float64(rng.Intn(3)))
	}
	for r := 0; r < 10; r++ {
		var cs []Coef
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				cs = append(cs, Coef{v, rng.Float64()*2 - 0.5})
			}
		}
		m.AddRow(cs, Sense(r%3), rng.Float64()*3)
	}
	return m
}

// solveWalk fixes each variable of m to each of its two smallest integers in
// turn, solving after every change and releasing the fix afterwards; it
// returns every solution.
func solveWalk(m *Model) ([]*Solution, error) {
	var out []*Solution
	for v := 0; v < m.NumVars(); v++ {
		lo, hi := m.Bounds(v)
		for b := lo; b <= lo+1; b++ {
			m.SetBounds(v, b, b)
			sol, err := m.Solve()
			if err != nil {
				return nil, err
			}
			out = append(out, sol)
		}
		m.SetBounds(v, lo, hi)
	}
	return out, nil
}

func TestCloneSolvesConcurrently(t *testing.T) {
	// Solve keeps scratch in the model, so Clone must not share it: clones
	// of a solved model, solved from two goroutines at once (the CI race
	// job runs this under -race), give exactly the sequential results.
	base := cloneTestModel()
	if _, err := base.Solve(); err != nil {
		t.Fatal(err)
	}
	if base.Clone().ws != nil {
		t.Fatal("Clone copied the solve workspace")
	}
	want, err := solveWalk(base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	clones := []*Model{base.Clone(), base.Clone()}
	got := make([][]*Solution, len(clones))
	var wg sync.WaitGroup
	for k, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sols, err := solveWalk(c)
			if err != nil {
				t.Error(err)
			}
			got[k] = sols
		}()
	}
	// The base model keeps solving meanwhile, on its own workspace.
	if _, err := solveWalk(base); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for k := range clones {
		if len(got[k]) != len(want) {
			t.Fatalf("clone %d: %d solutions, want %d", k, len(got[k]), len(want))
		}
		for i := range want {
			if d := DiffSolution(got[k][i], want[i]); d != "" {
				t.Fatalf("clone %d solve %d: %s", k, i, d)
			}
		}
	}
}
