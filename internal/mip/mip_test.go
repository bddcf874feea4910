package mip

import (
	"math"
	"math/rand"
	"testing"

	"microfab/internal/lp"
)

func binary(m *lp.Model, v int) { m.SetBounds(v, 0, 1) }

func TestKnapsack(t *testing.T) {
	// max 10a+13b+7c s.t. 3a+4b+2c <= 6, binaries → a=0? enumerate:
	// abc: 111 w=9 no; 110 w=7 no; 101 w=5 val=17; 011 w=6 val=20; ...
	// optimum 011 = 20.
	m := lp.NewModel(3)
	vals := []float64{10, 13, 7}
	wts := []float64{3, 4, 2}
	var row []lp.Coef
	for v := 0; v < 3; v++ {
		m.SetObj(v, -vals[v])
		binary(m, v)
		row = append(row, lp.Coef{Var: v, Val: wts[v]})
	}
	m.AddRow(row, lp.LE, 6)
	res, err := Solve(&Problem{Model: m, Integers: []int{0, 1, 2}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-(-20)) > 1e-6 {
		t.Fatalf("objective = %v, want -20", res.Objective)
	}
	if math.Round(res.X[0]) != 0 || math.Round(res.X[1]) != 1 || math.Round(res.X[2]) != 1 {
		t.Fatalf("x = %v, want (0,1,1)", res.X)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2a = 1 with a binary: LP feasible (a=0.5) but no integer point.
	m := lp.NewModel(1)
	binary(m, 0)
	m.AddRow([]lp.Coef{{Var: 0, Val: 2}}, lp.EQ, 1)
	res, err := Solve(&Problem{Model: m, Integers: []int{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestPureLPPassthrough(t *testing.T) {
	m := lp.NewModel(1)
	m.SetObj(0, 1)
	m.AddRow([]lp.Coef{{Var: 0, Val: 1}}, lp.GE, 4)
	res, err := Solve(&Problem{Model: m}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-4) > 1e-8 {
		t.Fatalf("got %v obj %v", res.Status, res.Objective)
	}
}

func TestWarmIncumbentNeverWorsens(t *testing.T) {
	// Simple set-partition-ish model; warm start with a feasible point.
	m := lp.NewModel(2)
	binary(m, 0)
	binary(m, 1)
	m.SetObj(0, 3)
	m.SetObj(1, 5)
	m.AddRow([]lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, lp.GE, 1)
	warm := []float64{1, 1} // feasible, objective 8
	res, err := Solve(&Problem{Model: m, Integers: []int{0, 1}}, Options{Incumbent: warm})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-3) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 3", res.Status, res.Objective)
	}
}

// bruteForceBinary enumerates all binary points and returns the best
// objective subject to the rows being satisfied.
func bruteForceBinary(obj []float64, rows [][]float64, senses []lp.Sense, rhs []float64) float64 {
	n := len(obj)
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for r := range rows {
			s := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					s += rows[r][j]
				}
			}
			switch senses[r] {
			case lp.LE:
				ok = ok && s <= rhs[r]+1e-9
			case lp.GE:
				ok = ok && s >= rhs[r]-1e-9
			case lp.EQ:
				ok = ok && math.Abs(s-rhs[r]) <= 1e-9
			}
		}
		if !ok {
			continue
		}
		o := 0.0
		for j := 0; j < n; j++ {
			if mask>>j&1 == 1 {
				o += obj[j]
			}
		}
		if o < best {
			best = o
		}
	}
	return best
}

func TestRandomBinaryProgramsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(4) // 3..6 binaries
		k := 2 + rng.Intn(3)
		obj := make([]float64, n)
		for j := range obj {
			obj[j] = math.Round(rng.Float64()*20 - 10)
		}
		rows := make([][]float64, k)
		senses := make([]lp.Sense, k)
		rhs := make([]float64, k)
		for r := range rows {
			rows[r] = make([]float64, n)
			for j := range rows[r] {
				rows[r][j] = math.Round(rng.Float64() * 5)
			}
			senses[r] = lp.Sense(rng.Intn(2)) // LE or GE
			rhs[r] = math.Round(rng.Float64() * float64(n) * 2)
		}
		want := bruteForceBinary(obj, rows, senses, rhs)

		m := lp.NewModel(n)
		ints := make([]int, n)
		for j := 0; j < n; j++ {
			m.SetObj(j, obj[j])
			binary(m, j)
			ints[j] = j
		}
		for r := range rows {
			var cs []lp.Coef
			for j, v := range rows[r] {
				if v != 0 {
					cs = append(cs, lp.Coef{Var: j, Val: v})
				}
			}
			if len(cs) == 0 {
				continue
			}
			m.AddRow(cs, senses[r], rhs[r])
		}
		res, err := Solve(&Problem{Model: m, Integers: ints}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(want, 1) {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible, solver says %v obj %v x=%v", trial, res.Status, res.Objective, res.X)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal (brute force %v)", trial, res.Status, want)
		}
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: objective %v, brute force %v", trial, res.Objective, want)
		}
	}
}

func TestNodeBudgetReportsFeasible(t *testing.T) {
	// A knapsack big enough to need several nodes; with MaxNodes=1 and a
	// warm incumbent we must get Feasible (not Optimal) and a valid gap.
	rng := rand.New(rand.NewSource(3))
	n := 12
	m := lp.NewModel(n)
	var row []lp.Coef
	warm := make([]float64, n)
	ints := make([]int, n)
	for j := 0; j < n; j++ {
		m.SetObj(j, -(1 + rng.Float64()*9))
		binary(m, j)
		row = append(row, lp.Coef{Var: j, Val: 1 + rng.Float64()*4})
		ints[j] = j
	}
	m.AddRow(row, lp.LE, 10)
	res, err := Solve(&Problem{Model: m, Integers: ints}, Options{MaxNodes: 1, Incumbent: warm})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible {
		t.Fatalf("status = %v, want feasible", res.Status)
	}
	if res.Gap() < 0 {
		t.Fatalf("negative gap %v", res.Gap())
	}
}

// TestPivotCapLeavesNodesUnresolved pins that a node whose LP stops at the
// pivot cap is neither searched nor pruned: the search cannot then claim a
// proof, and its bound still covers the node's subtree.
func TestPivotCapLeavesNodesUnresolved(t *testing.T) {
	defer func(c int) { pivotCap = c }(pivotCap)
	rng := rand.New(rand.NewSource(5))
	const n = 10
	m := lp.NewModel(n)
	ints := make([]int, n)
	var weight, volume []lp.Coef
	for j := 0; j < n; j++ {
		m.SetObj(j, -(1 + rng.Float64()*9))
		binary(m, j)
		weight = append(weight, lp.Coef{Var: j, Val: 1 + rng.Float64()*4})
		volume = append(volume, lp.Coef{Var: j, Val: 1 + rng.Float64()*4})
		ints[j] = j
	}
	m.AddRow(weight, lp.LE, 9)
	m.AddRow(volume, lp.LE, 8)
	p := &Problem{Model: m, Integers: ints}

	pivotCap = 0
	ref, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != Optimal {
		t.Fatalf("uncapped search: %v", ref.Status)
	}
	opt := ref.Objective

	childCapped := false
	for pivotCap = 1; pivotCap <= 20; pivotCap++ {
		res, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		switch res.Status {
		case Optimal:
			if math.Abs(res.Objective-opt) > 1e-6 {
				t.Fatalf("cap %d: optimal %v, true optimum %v", pivotCap, res.Objective, opt)
			}
		case Feasible, Budget:
			if res.Bound > opt+1e-9 {
				t.Fatalf("cap %d: %v with bound %v above the optimum %v", pivotCap, res.Status, res.Bound, opt)
			}
			childCapped = childCapped || !math.IsInf(res.Bound, -1)
		default:
			t.Fatalf("cap %d: %v", pivotCap, res.Status)
		}
		if pivotCap == 1 && (res.Status != Budget || !math.IsInf(res.Bound, -1)) {
			t.Fatalf("capped root: %v bound %v, want %v bound -Inf", res.Status, res.Bound, Budget)
		}
	}
	if !childCapped {
		t.Fatal("no cap stopped a node below the root: the test no longer covers it")
	}

	// A capped root with a warm incumbent keeps the incumbent unproven.
	pivotCap = 1
	warm := make([]float64, n)
	res, err := Solve(p, Options{Incumbent: warm})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible || !math.IsInf(res.Bound, -1) || res.Objective != 0 {
		t.Fatalf("capped root, warm start: %v objective %v bound %v, want %v 0 -Inf", res.Status, res.Objective, res.Bound, Feasible)
	}
}
