package hungarian

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// bruteAssign enumerates injective row->col assignments minimizing either
// the sum (bottleneck=false) or the max (bottleneck=true) cost.
func bruteAssign(cost [][]float64, bottleneck bool) float64 {
	nr := len(cost)
	nc := len(cost[0])
	used := make([]bool, nc)
	best := math.Inf(1)
	var rec func(r int, acc float64)
	rec = func(r int, acc float64) {
		if acc >= best {
			return
		}
		if r == nr {
			best = acc
			return
		}
		for c := 0; c < nc; c++ {
			if used[c] || math.IsInf(cost[r][c], 1) {
				continue
			}
			used[c] = true
			next := acc + cost[r][c]
			if bottleneck {
				next = math.Max(acc, cost[r][c])
			}
			rec(r+1, next)
			used[c] = false
		}
	}
	rec(0, 0)
	return best
}

func randCost(rng *rand.Rand, nr, nc int) [][]float64 {
	cost := make([][]float64, nr)
	for r := range cost {
		cost[r] = make([]float64, nc)
		for c := range cost[r] {
			cost[r][c] = math.Round(rng.Float64()*100) / 10
		}
	}
	return cost
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		nr := 1 + rng.Intn(5)
		nc := nr + rng.Intn(3)
		cost := randCost(rng, nr, nc)
		assign, total, err := Solve(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteAssign(cost, false)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: hungarian %v != brute %v (cost %v)", trial, total, want, cost)
		}
		// The assignment must be injective and consistent with total.
		seen := map[int]bool{}
		sum := 0.0
		for r, c := range assign {
			if seen[c] {
				t.Fatalf("trial %d: column %d reused", trial, c)
			}
			seen[c] = true
			sum += cost[r][c]
		}
		if math.Abs(sum-total) > 1e-9 {
			t.Fatalf("trial %d: assignment sums to %v, reported %v", trial, sum, total)
		}
	}
}

func TestSolveKnownCase(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	_, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total = %v, want 5", total)
	}
}

func TestSolveRejectsWideRows(t *testing.T) {
	if _, _, err := Solve([][]float64{{1}, {1}}); err == nil {
		t.Fatal("rows > cols accepted")
	}
}

func TestSolveEmptyAndRagged(t *testing.T) {
	if assign, total, err := Solve(nil); err != nil || assign != nil || total != 0 {
		t.Fatal("empty problem mishandled")
	}
	if _, _, err := Solve([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestSolveForbiddenPairs(t *testing.T) {
	inf := math.Inf(1)
	cost := [][]float64{
		{inf, 1},
		{1, inf},
	}
	assign, total, err := Solve(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || assign[0] != 1 || assign[1] != 0 {
		t.Fatalf("assign=%v total=%v", assign, total)
	}
	// Fully forbidden row -> error.
	bad := [][]float64{{inf, inf}, {1, 1}}
	if _, _, err := Solve(bad); err == nil {
		t.Fatal("isolated row accepted")
	}
}

func TestBottleneckMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		nr := 1 + rng.Intn(5)
		nc := nr + rng.Intn(3)
		cost := randCost(rng, nr, nc)
		assign, b, err := Bottleneck(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteAssign(cost, true)
		if math.Abs(b-want) > 1e-9 {
			t.Fatalf("trial %d: bottleneck %v != brute %v", trial, b, want)
		}
		worst := 0.0
		seen := map[int]bool{}
		for r, c := range assign {
			if seen[c] {
				t.Fatalf("trial %d: column reused", trial)
			}
			seen[c] = true
			if cost[r][c] > worst {
				worst = cost[r][c]
			}
		}
		if math.Abs(worst-b) > 1e-9 {
			t.Fatalf("trial %d: assignment bottleneck %v, reported %v", trial, worst, b)
		}
	}
}

func TestBottleneckRejects(t *testing.T) {
	if _, _, err := Bottleneck([][]float64{{1}, {1}}); err == nil {
		t.Fatal("rows > cols accepted")
	}
	inf := math.Inf(1)
	if _, _, err := Bottleneck([][]float64{{inf}}); err == nil {
		t.Fatal("all-infinite matrix accepted")
	}
}

// flattenFor is a test helper mirroring the wrapper's flattening.
func flattenFor(cost [][]float64) ([]float64, int, int) {
	nr, nc := len(cost), len(cost[0])
	flat := make([]float64, 0, nr*nc)
	for _, row := range cost {
		flat = append(flat, row...)
	}
	return flat, nr, nc
}

// TestSolverMatchesWrappers runs the reusable workspace against the one-shot
// wrappers on random rectangular instances of varying shape, interleaving
// Solve and Bottleneck calls so buffer reuse across shapes is exercised.
func TestSolverMatchesWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSolver()
	for trial := 0; trial < 120; trial++ {
		nr := 1 + rng.Intn(6)
		nc := nr + rng.Intn(4)
		cost := randCost(rng, nr, nc)
		if rng.Intn(4) == 0 { // sprinkle forbidden pairs
			cost[rng.Intn(nr)][rng.Intn(nc)] = math.Inf(1)
		}
		flat, fnr, fnc := flattenFor(cost)

		wa, wt, werr := Solve(cost)
		sa, st, serr := s.Solve(flat, fnr, fnc)
		if (werr == nil) != (serr == nil) {
			t.Fatalf("trial %d: Solve err mismatch: wrapper %v solver %v", trial, werr, serr)
		}
		if werr == nil {
			if math.Abs(wt-st) > 1e-9 {
				t.Fatalf("trial %d: Solve total wrapper %v solver %v", trial, wt, st)
			}
			for r := range wa {
				if wa[r] != sa[r] {
					t.Fatalf("trial %d: Solve assign wrapper %v solver %v", trial, wa, sa)
				}
			}
		}

		wa, wb, werr := Bottleneck(cost)
		sa, sb, serr := s.Bottleneck(flat, fnr, fnc)
		if (werr == nil) != (serr == nil) {
			t.Fatalf("trial %d: Bottleneck err mismatch: wrapper %v solver %v", trial, werr, serr)
		}
		if werr == nil {
			if math.Abs(wb-sb) > 1e-9 {
				t.Fatalf("trial %d: Bottleneck value wrapper %v solver %v", trial, wb, sb)
			}
			for r := range wa {
				if wa[r] != sa[r] {
					t.Fatalf("trial %d: Bottleneck assign wrapper %v solver %v", trial, wa, sa)
				}
			}
		}
	}
}

func TestSolverErrNoPerfectMatching(t *testing.T) {
	inf := math.Inf(1)
	s := NewSolver()
	if _, _, err := s.Solve([]float64{inf, inf, 1, 1}, 2, 2); !errors.Is(err, ErrNoPerfectMatching) {
		t.Fatalf("Solve isolated row: err = %v, want ErrNoPerfectMatching", err)
	}
	if _, _, err := s.Bottleneck([]float64{inf, inf, 1, 1}, 2, 2); !errors.Is(err, ErrNoPerfectMatching) {
		t.Fatalf("Bottleneck isolated row: err = %v, want ErrNoPerfectMatching", err)
	}
	if _, _, err := s.Bottleneck([]float64{inf}, 1, 1); !errors.Is(err, ErrNoPerfectMatching) {
		t.Fatalf("Bottleneck all-infinite: err = %v, want ErrNoPerfectMatching", err)
	}
}

// TestSolverZeroAlloc pins the workspace's steady-state amortized cost at
// zero allocations per call — the property the exact solver's per-node
// assignment bound relies on.
func TestSolverZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nr, nc = 8, 10
	cost := make([]float64, nr*nc)
	for i := range cost {
		cost[i] = math.Round(rng.Float64()*100) / 10
	}
	s := NewSolver()
	// Warm both paths so the buffers are at final size.
	if _, _, err := s.Solve(cost, nr, nc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Bottleneck(cost, nr, nc); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, _, err := s.Solve(cost, nr, nc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Solver.Solve allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, _, err := s.Bottleneck(cost, nr, nc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Solver.Bottleneck allocates %v per op, want 0", n)
	}
}

func benchCost(n, m int) []float64 {
	rng := rand.New(rand.NewSource(3))
	cost := make([]float64, n*m)
	for i := range cost {
		cost[i] = rng.Float64() * 10
	}
	return cost
}

func BenchmarkSolverAssign(b *testing.B) {
	const nr, nc = 12, 16
	cost := benchCost(nr, nc)
	s := NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Solve(cost, nr, nc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverBottleneck(b *testing.B) {
	const nr, nc = 12, 16
	cost := benchCost(nr, nc)
	s := NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Bottleneck(cost, nr, nc); err != nil {
			b.Fatal(err)
		}
	}
}
