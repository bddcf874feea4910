package lp_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/lp"
	"microfab/internal/milp"
)

// checkOracle solves m with the production simplex and the dense oracle at
// the given pivot cap and fails on any bit difference.
func checkOracle(t *testing.T, m *lp.Model, iterLimit int, what string) *lp.Solution {
	t.Helper()
	got, err := m.SolveWithLimit(iterLimit)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := lp.DenseSolve(m, iterLimit)
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	if d := lp.DiffSolution(got, want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
	return got
}

// randomLP draws a small LP mixing every row sense, negative right-hand
// sides, shifted lower bounds, finite and infinite upper bounds and fixed
// variables, so the draw covers optimal, infeasible and unbounded models.
func randomLP(rng *rand.Rand) *lp.Model {
	n := 2 + rng.Intn(7)
	m := lp.NewModel(n)
	for v := 0; v < n; v++ {
		m.SetObj(v, math.Round((rng.Float64()*6-3)*4)/4)
		lo := float64(rng.Intn(3) - 1)
		switch rng.Intn(4) {
		case 0:
			m.SetBounds(v, lo, math.Inf(1))
		case 1:
			m.SetBounds(v, lo, lo)
		default:
			m.SetBounds(v, lo, lo+1+float64(rng.Intn(4)))
		}
	}
	for r, k := 0, 1+rng.Intn(7); r < k; r++ {
		var cs []lp.Coef
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				continue
			}
			cs = append(cs, lp.Coef{Var: v, Val: float64(rng.Intn(9) - 4)})
		}
		m.AddRow(cs, lp.Sense(rng.Intn(3)), float64(rng.Intn(13)-4))
	}
	return m
}

// mutateBounds applies one random bound change to m: a fix, a tightening,
// an opened or closed upper bound, or an empty domain, the kinds of change a
// branch and bound makes between solves.
func mutateBounds(rng *rand.Rand, m *lp.Model) {
	v := rng.Intn(m.NumVars())
	lo, hi := m.Bounds(v)
	switch rng.Intn(5) {
	case 0:
		m.SetBounds(v, lo, lo)
	case 1:
		m.SetBounds(v, lo, math.Inf(1))
	case 2:
		m.SetBounds(v, lo, lo+float64(1+rng.Intn(3)))
	case 3:
		m.SetBounds(v, lo-1, hi)
	default:
		m.SetBounds(v, lo+1, lo)
	}
}

// bealeLP builds Beale's cycling LP, min -0.75x1 + 150x2 - 0.02x3 + 6x4
// over three LE rows, on which Dantzig pricing cycles until the simplex
// switches to Bland's rule. objScale scales the objective, rowScale[r]
// row r, colScale[v] variable v's column, rowOrder gives the order rows
// are added in and col[v] the model column of variable v; extra variables
// after the four (with zero cost, in no Beale row) are left for the
// caller. Every variant reaches the Beale optimum -0.05·objScale.
func bealeLP(objScale float64, rowScale, colScale []float64, rowOrder, col []int, extra int) *lp.Model {
	obj := []float64{-0.75, 150, -0.02, 6}
	rows := [][]float64{{0.25, -60, -1.0 / 25, 9}, {0.5, -90, -1.0 / 50, 3}, {0, 0, 1, 0}}
	rhs := []float64{0, 0, 1}
	m := lp.NewModel(4 + extra)
	for v, c := range obj {
		m.SetObj(col[v], objScale*c*colScale[v])
	}
	for _, r := range rowOrder {
		var cs []lp.Coef
		for v, a := range rows[r] {
			if a != 0 {
				cs = append(cs, lp.Coef{Var: col[v], Val: rowScale[r] * a * colScale[v]})
			}
		}
		m.AddRow(cs, lp.LE, rowScale[r]*rhs[r])
	}
	return m
}

// addRedundantPair adds x_u + x_v == 2 and 2x_u + 2x_v == 4: phase 1
// leaves the second row's artificial basic at zero with every other entry
// of its row zero, so evictArtificials deletes that row.
func addRedundantPair(m *lp.Model, u, v int) {
	m.AddRow([]lp.Coef{{Var: u, Val: 1}, {Var: v, Val: 1}}, lp.EQ, 2)
	m.AddRow([]lp.Coef{{Var: u, Val: 2}, {Var: v, Val: 2}}, lp.EQ, 4)
}

type namedModel struct {
	name string
	md   *milp.Model
}

// campaignModels builds the specialized-rule MIP of Figure 10 (m=5, p=2,
// n=4..6) and Figure 12 (m=9, p=4, n=5) shaped chain draws.
func campaignModels(t *testing.T) []namedModel {
	t.Helper()
	var out []namedModel
	for _, c := range []struct{ n, p, m int }{{4, 2, 5}, {5, 2, 5}, {6, 2, 5}, {5, 4, 9}} {
		for seed := int64(1); seed <= 2; seed++ {
			in, err := gen.Chain(gen.Default(c.n, c.p, c.m), gen.RNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			md, err := milp.Build(in, core.Specialized)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedModel{fmt.Sprintf("n%d-p%d-m%d-seed%d", c.n, c.p, c.m, seed), md})
		}
	}
	return out
}

// TestSimplexMatchesDenseOracle pins the production simplex — sparse-row
// pivots on a tableau reused across solves — bit for bit to the dense,
// cold-allocating oracle: on random LPs, on the campaign MIP models, and on
// each model through a branch-and-bound-like sequence of bound changes on
// one Model, which reuses the workspace across changing row and column
// counts.
func TestSimplexMatchesDenseOracle(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		seen := map[lp.Status]int{}
		for trial := 0; trial < 1000; trial++ {
			m := randomLP(rng)
			for step := 0; step < 6; step++ {
				what := fmt.Sprintf("trial %d step %d", trial, step)
				seen[checkOracle(t, m, lp.DefaultIterLimit, what).Status]++
				seen[checkOracle(t, m, 1+rng.Intn(4), what+" capped").Status]++
				mutateBounds(rng, m)
			}
		}
		for _, st := range []lp.Status{lp.Optimal, lp.Infeasible, lp.Unbounded, lp.IterLimit} {
			if seen[st] == 0 {
				t.Errorf("no random draw ended %v: the draw no longer covers every outcome", st)
			}
		}
		t.Logf("outcomes: %v", seen)
	})
	t.Run("bland", func(t *testing.T) {
		one3, one4 := []float64{1, 1, 1}, []float64{1, 1, 1, 1}
		inOrder, identity := []int{0, 1, 2}, []int{0, 1, 2, 3}
		beale := func() *lp.Model { return bealeLP(1, one3, one4, inOrder, identity, 0) }
		cases := []struct {
			name  string
			build func() *lp.Model
			// stdRows is the standard form's row count; a tableau that
			// ends with fewer deleted a redundant row.
			stdRows   int
			bland     bool
			redundant bool
		}{
			{"beale", beale, 3, true, false},
			{"beale-obj-x1000", func() *lp.Model { return bealeLP(1000, one3, one4, inOrder, identity, 0) }, 3, true, false},
			{"beale-obj-x3-row3-x7", func() *lp.Model { return bealeLP(3, []float64{1, 1, 7}, one4, inOrder, identity, 0) }, 3, true, false},
			{"beale-rows-half-cols-x2", func() *lp.Model {
				return bealeLP(1, []float64{0.5, 0.5, 1}, []float64{2, 2, 2, 2}, inOrder, identity, 0)
			}, 3, true, false},
			{"beale-x3-x2", func() *lp.Model { return bealeLP(64, one3, []float64{1, 1, 2, 1}, inOrder, identity, 0) }, 3, true, false},
			{"beale-permuted", func() *lp.Model { return bealeLP(1, one3, one4, []int{2, 0, 1}, []int{0, 2, 1, 3}, 0) }, 3, true, false},
			{"beale-redundant", func() *lp.Model {
				m := bealeLP(1, one3, one4, inOrder, identity, 2)
				addRedundantPair(m, 4, 5)
				return m
			}, 5, true, true},
			{"redundant", func() *lp.Model {
				m := lp.NewModel(3)
				m.SetObj(0, 1)
				m.SetObj(1, -1)
				m.SetObj(2, 2)
				addRedundantPair(m, 0, 1)
				m.AddRow([]lp.Coef{{Var: 1, Val: 1}, {Var: 2, Val: -1}}, lp.LE, 1)
				return m
			}, 3, false, true},
		}
		for _, c := range cases {
			m := c.build()
			sol := checkOracle(t, m, lp.DefaultIterLimit, c.name)
			if sol.Status != lp.Optimal {
				t.Fatalf("%s: %v, want optimal", c.name, sol.Status)
			}
			rows := lp.TableauRows(m)
			if blandAt := 2*rows + 50; c.bland && sol.Iterations <= blandAt {
				t.Errorf("%s: %d pivots on %d rows: never switched to Bland's rule", c.name, sol.Iterations, rows)
			} else if c.bland {
				// Stop one pivot short of the optimum as well.
				checkOracle(t, m, sol.Iterations-1, c.name+" capped")
			}
			if c.redundant && rows >= c.stdRows {
				t.Errorf("%s: tableau ends with %d of %d rows: no redundant row deleted", c.name, rows, c.stdRows)
			}
		}
	})
	t.Run("campaign", func(t *testing.T) {
		for k, c := range campaignModels(t) {
			name, md, m := c.name, c.md, c.md.LP
			root := checkOracle(t, m, lp.DefaultIterLimit, name+" root")
			if root.Status != lp.Optimal {
				t.Fatalf("%s: root relaxation %v", name, root.Status)
			}
			// Branch-and-bound-like walk: fix integer variables to 0 or 1
			// one at a time, sometimes all at once as the rounding dive
			// does (some domains then come out empty), and release them
			// again, solving after every step.
			rng := rand.New(rand.NewSource(int64(k)))
			type fix struct {
				v int
				b float64
			}
			var fixed []fix
			for step := 0; step < 40; step++ {
				switch {
				case len(fixed) > 0 && rng.Intn(3) == 0:
					m.SetBounds(fixed[len(fixed)-1].v, 0, 1)
					fixed = fixed[:len(fixed)-1]
				case rng.Intn(8) == 0:
					for _, v := range md.Integers {
						m.SetBounds(v, float64(rng.Intn(2)), float64(rng.Intn(2)))
					}
					checkOracle(t, m, lp.DefaultIterLimit, fmt.Sprintf("%s step %d dive", name, step))
					for _, v := range md.Integers {
						m.SetBounds(v, 0, 1)
					}
					for _, f := range fixed {
						m.SetBounds(f.v, f.b, f.b)
					}
				default:
					v := md.Integers[rng.Intn(len(md.Integers))]
					b := float64(rng.Intn(2))
					m.SetBounds(v, b, b)
					fixed = append(fixed, fix{v, b})
				}
				checkOracle(t, m, lp.DefaultIterLimit, fmt.Sprintf("%s step %d", name, step))
			}
		}
	})
}
