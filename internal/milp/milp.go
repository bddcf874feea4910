// Package milp builds and solves the paper's mixed-integer program for the
// specialized mapping problem (§6.1, constraints (3)-(8)), generalized to
// in-tree applications and to the one-to-one and general rules.
//
// Variables (task i, machine u, type j):
//
//	x_i  >= 1  — products task i starts per finished product (rational);
//	a_iu ∈ {0,1} — task i runs on machine u;
//	t_uj ∈ {0,1} — machine u is specialized to type j (specialized rule);
//	y_iu >= 0 — linearization of a_iu · x_i;
//	K    >= 0 — the period, minimized.
//
// Constraints:
//
//	(3) Σ_u a_iu = 1                      each task placed exactly once
//	(4) Σ_j t_uj <= 1                     a machine serves at most one type
//	(5) a_iu <= t_u,t(i)                  placement only on a machine of the type
//	(6) x_i >= F_iu·x_succ(i) − (1−a_iu)·MAXx_i    big-M product propagation
//	(7) Σ_i w_iu·y_iu <= K                machine period below the objective
//	(8) y_iu <= a_iu·MAXx_i, y_iu <= x_i, y_iu >= x_i − (1−a_iu)·MAXx_i
//
// with F_iu = 1/(1−f[i][u]) and MAXx_i = Π over the path from i to the root
// of 1/(1−max_u f[j][u]) (the paper's upper bound on x_i).
package milp

import (
	"fmt"
	"time"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/lp"
	"microfab/internal/mip"
	"microfab/internal/platform"
)

// Model is the assembled MIP plus the variable layout needed to read
// solutions back.
type Model struct {
	LP       *lp.Model
	Integers []int
	Rule     core.Rule

	in   *core.Instance
	n, m int
	p    int

	xVar []int   // x_i
	aVar [][]int // a[i][u]
	tVar [][]int // t[u][j] (specialized rule only)
	yVar [][]int // y[i][u]
	kVar int
	maxX []float64
}

// Build assembles the MIP for the instance under the given rule.
func Build(in *core.Instance, rule core.Rule) (*Model, error) {
	n, m, p := in.N(), in.M(), in.P()
	md := &Model{Rule: rule, in: in, n: n, m: m, p: p}

	nv := 0
	alloc := func() int { nv++; return nv - 1 }
	md.xVar = make([]int, n)
	for i := range md.xVar {
		md.xVar[i] = alloc()
	}
	md.aVar = make([][]int, n)
	md.yVar = make([][]int, n)
	for i := 0; i < n; i++ {
		md.aVar[i] = make([]int, m)
		md.yVar[i] = make([]int, m)
		for u := 0; u < m; u++ {
			md.aVar[i][u] = alloc()
			md.yVar[i][u] = alloc()
		}
	}
	if rule == core.Specialized {
		md.tVar = make([][]int, m)
		for u := 0; u < m; u++ {
			md.tVar[u] = make([]int, p)
			for j := 0; j < p; j++ {
				md.tVar[u][j] = alloc()
			}
		}
	}
	md.kVar = alloc()

	model := lp.NewModel(nv)
	md.LP = model

	// MAXx_i along the in-tree path to the root.
	md.maxX = make([]float64, n)
	for _, i := range in.App.ReverseTopological() {
		acc := 1.0
		if s := in.App.Successor(i); s != app.NoTask {
			acc = md.maxX[s]
		}
		md.maxX[i] = acc / (1 - in.Failures.WorstRate(i))
	}

	// Bounds, names, integrality.
	for i := 0; i < n; i++ {
		model.SetBounds(md.xVar[i], 1, md.maxX[i])
		model.SetName(md.xVar[i], fmt.Sprintf("x[%d]", i))
		for u := 0; u < m; u++ {
			model.SetBounds(md.aVar[i][u], 0, 1)
			model.SetName(md.aVar[i][u], fmt.Sprintf("a[%d][%d]", i, u))
			md.Integers = append(md.Integers, md.aVar[i][u])
			model.SetBounds(md.yVar[i][u], 0, md.maxX[i])
			model.SetName(md.yVar[i][u], fmt.Sprintf("y[%d][%d]", i, u))
		}
	}
	if rule == core.Specialized {
		for u := 0; u < m; u++ {
			for j := 0; j < p; j++ {
				model.SetBounds(md.tVar[u][j], 0, 1)
				model.SetName(md.tVar[u][j], fmt.Sprintf("t[%d][%d]", u, j))
				md.Integers = append(md.Integers, md.tVar[u][j])
			}
		}
	}
	model.SetName(md.kVar, "K")
	model.SetObj(md.kVar, 1)

	// (3) each task on exactly one machine.
	for i := 0; i < n; i++ {
		row := make([]lp.Coef, m)
		for u := 0; u < m; u++ {
			row[u] = lp.Coef{Var: md.aVar[i][u], Val: 1}
		}
		model.AddRow(row, lp.EQ, 1)
	}
	switch rule {
	case core.Specialized:
		// (4) at most one type per machine.
		for u := 0; u < m; u++ {
			row := make([]lp.Coef, p)
			for j := 0; j < p; j++ {
				row[j] = lp.Coef{Var: md.tVar[u][j], Val: 1}
			}
			model.AddRow(row, lp.LE, 1)
		}
		// (5) a_iu <= t_u,t(i).
		for i := 0; i < n; i++ {
			ty := int(in.App.Type(app.TaskID(i)))
			for u := 0; u < m; u++ {
				model.AddRow([]lp.Coef{
					{Var: md.aVar[i][u], Val: 1},
					{Var: md.tVar[u][ty], Val: -1},
				}, lp.LE, 0)
			}
		}
	case core.OneToOne:
		if n > m {
			return nil, fmt.Errorf("milp: one-to-one needs n <= m (n=%d, m=%d)", n, m)
		}
		for u := 0; u < m; u++ {
			row := make([]lp.Coef, n)
			for i := 0; i < n; i++ {
				row[i] = lp.Coef{Var: md.aVar[i][u], Val: 1}
			}
			model.AddRow(row, lp.LE, 1)
		}
	case core.GeneralRule:
		// no extra rows
	}

	// (6) product propagation with big-M.
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		succ := in.App.Successor(id)
		for u := 0; u < m; u++ {
			F := in.Failures.Inflation(id, platform.MachineID(u))
			if succ == app.NoTask {
				// x_i − MAXx_i·a_iu >= F_iu − MAXx_i
				model.AddRow([]lp.Coef{
					{Var: md.xVar[i], Val: 1},
					{Var: md.aVar[i][u], Val: -md.maxX[i]},
				}, lp.GE, F-md.maxX[i])
			} else {
				// x_i − F_iu·x_succ − MAXx_i·a_iu >= −MAXx_i
				model.AddRow([]lp.Coef{
					{Var: md.xVar[i], Val: 1},
					{Var: md.xVar[succ], Val: -F},
					{Var: md.aVar[i][u], Val: -md.maxX[i]},
				}, lp.GE, -md.maxX[i])
			}
		}
	}

	// (7) machine periods below K.
	for u := 0; u < m; u++ {
		row := []lp.Coef{{Var: md.kVar, Val: -1}}
		for i := 0; i < n; i++ {
			row = append(row, lp.Coef{
				Var: md.yVar[i][u],
				Val: in.Platform.Time(app.TaskID(i), platform.MachineID(u)),
			})
		}
		model.AddRow(row, lp.LE, 0)
	}

	// (8) y linearization.
	for i := 0; i < n; i++ {
		for u := 0; u < m; u++ {
			model.AddRow([]lp.Coef{
				{Var: md.yVar[i][u], Val: 1},
				{Var: md.aVar[i][u], Val: -md.maxX[i]},
			}, lp.LE, 0)
			model.AddRow([]lp.Coef{
				{Var: md.yVar[i][u], Val: 1},
				{Var: md.xVar[i], Val: -1},
			}, lp.LE, 0)
			model.AddRow([]lp.Coef{
				{Var: md.yVar[i][u], Val: 1},
				{Var: md.xVar[i], Val: -1},
				{Var: md.aVar[i][u], Val: -md.maxX[i]},
			}, lp.GE, -md.maxX[i])
		}
	}
	return md, nil
}

// WarmStart converts a feasible mapping into a full variable vector for the
// branch and bound incumbent.
func (md *Model) WarmStart(m *core.Mapping) ([]float64, error) {
	if err := m.CheckRule(md.in.App, md.Rule); err != nil {
		return nil, err
	}
	ev, err := core.Evaluate(md.in, m)
	if err != nil {
		return nil, err
	}
	x := make([]float64, md.LP.NumVars())
	for i := 0; i < md.n; i++ {
		id := app.TaskID(i)
		u := m.Machine(id)
		x[md.xVar[i]] = ev.ProductCounts[i]
		x[md.aVar[i][int(u)]] = 1
		x[md.yVar[i][int(u)]] = ev.ProductCounts[i]
		if md.Rule == core.Specialized {
			x[md.tVar[int(u)][int(md.in.App.Type(id))]] = 1
		}
	}
	x[md.kVar] = ev.Period
	return x, nil
}

// Extract reads the mapping out of a solved variable vector.
func (md *Model) Extract(x []float64) (*core.Mapping, error) {
	mp := core.NewMapping(md.n)
	for i := 0; i < md.n; i++ {
		assigned := false
		for u := 0; u < md.m; u++ {
			if x[md.aVar[i][u]] > 0.5 {
				if assigned {
					return nil, fmt.Errorf("milp: task %d assigned twice in solution", i)
				}
				mp.Assign(app.TaskID(i), platform.MachineID(u))
				assigned = true
			}
		}
		if !assigned {
			return nil, fmt.Errorf("milp: task %d unassigned in solution", i)
		}
	}
	return mp, nil
}

// Options tunes the exact solve.
type Options struct {
	// Rule defaults to Specialized.
	Rule core.Rule
	// WarmStart optionally seeds the incumbent (use the best heuristic).
	WarmStart *core.Mapping
	// MaxNodes / TimeLimit bound the branch and bound (0 = defaults).
	MaxNodes  int
	TimeLimit time.Duration
}

// Result is the outcome of an exact solve.
type Result struct {
	// Mapping is the best integer-feasible mapping found (nil when none).
	Mapping *core.Mapping
	// Period is the mapping's period re-evaluated through core (ms).
	Period float64
	// Proven reports whether optimality was proven.
	Proven bool
	// Bound is the proven lower bound on the optimal period.
	Bound float64
	// Nodes explored in the search.
	Nodes   int
	Elapsed time.Duration
}

// Solve builds and optimizes the MIP for the instance.
func Solve(in *core.Instance, opts Options) (*Result, error) {
	md, err := Build(in, opts.Rule)
	if err != nil {
		return nil, err
	}
	mo := mip.Options{
		MaxNodes:  opts.MaxNodes,
		TimeLimit: opts.TimeLimit,
	}
	if opts.WarmStart != nil {
		warm, err := md.WarmStart(opts.WarmStart)
		if err != nil {
			return nil, fmt.Errorf("milp: warm start rejected: %w", err)
		}
		mo.Incumbent = warm
	}
	res, err := mip.Solve(&mip.Problem{Model: md.LP, Integers: md.Integers}, mo)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Proven:  res.Status == mip.Optimal,
		Bound:   res.Bound,
		Nodes:   res.Nodes,
		Elapsed: res.Elapsed,
	}
	switch res.Status {
	case mip.Infeasible:
		return nil, fmt.Errorf("milp: instance infeasible under rule %v", opts.Rule)
	case mip.Unbounded:
		return nil, fmt.Errorf("milp: model unbounded (should not happen: K >= 0 and all rows bound it)")
	case mip.Budget:
		return out, nil // no incumbent; caller sees Mapping == nil
	}
	mp, err := md.Extract(res.X)
	if err != nil {
		return nil, err
	}
	// Round the mapping's true period through core, not the LP's K value:
	// floating big-M slack can leave K a hair off.
	period, err := core.PeriodE(in, mp)
	if err != nil {
		return nil, fmt.Errorf("milp: extracted mapping does not evaluate: %w", err)
	}
	out.Mapping = mp
	out.Period = period
	return out, nil
}
