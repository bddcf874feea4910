// Package oto solves one-to-one mapping problems (each machine runs at most
// one task, so n <= m is required).
//
// Solvers:
//
//   - OptimalChainHomogeneous — Theorem 1: on a linear chain with
//     homogeneous machines (w[i][u] = w) the optimum is a minimum-weight
//     bipartite matching with edge costs -log(1 - f[i][u]);
//   - OptimalTaskOnly — the Figure 9 baseline: when failures depend only on
//     the task (f[i][u] = f[i]) the product counts x[i] are
//     mapping-independent, so minimizing the period max_i x[i]·w[i][a(i)]
//     is a bottleneck assignment problem, polynomial for any application
//     shape and heterogeneous machines;
//   - Greedy — a fast fallback for instances none of the polynomial cases
//     cover.
package oto

import (
	"fmt"
	"math"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/hungarian"
	"microfab/internal/platform"
)

// check validates the one-to-one size precondition.
func check(in *core.Instance) error {
	if in.N() > in.M() {
		return fmt.Errorf("oto: %d tasks exceed %d machines; one-to-one mapping impossible", in.N(), in.M())
	}
	return nil
}

// OptimalChainHomogeneous computes the optimal one-to-one mapping for a
// linear chain on homogeneous machines (Theorem 1). The period is
// constrained by the machine of the first task, whose product count is
// x[0] = Π_j F(j,a(j)); minimizing the period is minimizing Σ_j
// -log(1 - f[j][a(j)]), a min-cost assignment.
func OptimalChainHomogeneous(in *core.Instance) (*core.Mapping, error) {
	if err := check(in); err != nil {
		return nil, err
	}
	if !in.App.IsChain() {
		return nil, fmt.Errorf("oto: Theorem 1 requires a linear chain application")
	}
	if !in.Platform.IsHomogeneous() {
		return nil, fmt.Errorf("oto: Theorem 1 requires homogeneous machines")
	}
	n, m := in.N(), in.M()
	cost := make([][]float64, n)
	for i := 0; i < n; i++ {
		cost[i] = make([]float64, m)
		for u := 0; u < m; u++ {
			cost[i][u] = -math.Log(in.Failures.Survival(app.TaskID(i), platform.MachineID(u)))
		}
	}
	assign, _, err := hungarian.Solve(cost)
	if err != nil {
		return nil, err
	}
	mp := core.NewMapping(n)
	for i, u := range assign {
		mp.Assign(app.TaskID(i), platform.MachineID(u))
	}
	return mp, nil
}

// MappingFreeCounts returns the x[i] values when failures are task-only:
// x[i] = Π over the path from i to the root of 1/(1-f[j]), independent of
// any mapping. It errors if the failure matrix is not task-only.
func MappingFreeCounts(in *core.Instance) ([]float64, error) {
	cls := in.Failures.Classify()
	if cls != failure.TaskOnly && cls != failure.Uniform {
		return nil, fmt.Errorf("oto: failures are %v, not task-only; x[i] depends on the mapping", cls)
	}
	n := in.N()
	x := make([]float64, n)
	for _, i := range in.App.ReverseTopological() {
		demand := 1.0
		if s := in.App.Successor(i); s != app.NoTask {
			demand = x[s]
		}
		// Any machine column works: rates are equal across machines.
		x[i] = demand / (1 - in.Failures.Rate(i, 0))
	}
	return x, nil
}

// OptimalTaskOnly computes the optimal one-to-one mapping when failure
// rates are task-only (f[i][u] = f[i]), for any application shape and fully
// heterogeneous machines. With x[i] fixed, period(Mu) = x[i]·w[i][u] for
// the single task on u, so the optimum is the bottleneck assignment over
// costs x[i]·w[i][u].
func OptimalTaskOnly(in *core.Instance) (*core.Mapping, error) {
	if err := check(in); err != nil {
		return nil, err
	}
	x, err := MappingFreeCounts(in)
	if err != nil {
		return nil, err
	}
	n, m := in.N(), in.M()
	cost := make([][]float64, n)
	for i := 0; i < n; i++ {
		cost[i] = make([]float64, m)
		for u := 0; u < m; u++ {
			cost[i][u] = x[i] * in.Platform.Time(app.TaskID(i), platform.MachineID(u))
		}
	}
	assign, _, err := hungarian.Bottleneck(cost)
	if err != nil {
		return nil, err
	}
	mp := core.NewMapping(n)
	for i, u := range assign {
		mp.Assign(app.TaskID(i), platform.MachineID(u))
	}
	return mp, nil
}

// Greedy assigns tasks root-first, each to the unused machine minimizing
// the task's priced cost x[i]·w[i][u]. Polynomial fallback with no
// optimality guarantee (the general problem is NP-hard, Theorem 2).
func Greedy(in *core.Instance) (*core.Mapping, error) {
	if err := check(in); err != nil {
		return nil, err
	}
	n, m := in.N(), in.M()
	mp := core.NewMapping(n)
	used := make([]bool, m)
	x := make([]float64, n)
	for _, i := range in.App.ReverseTopological() {
		demand := 1.0
		if s := in.App.Successor(i); s != app.NoTask {
			demand = x[s]
		}
		best := platform.NoMachine
		bestCost := math.Inf(1)
		for u := 0; u < m; u++ {
			if used[u] {
				continue
			}
			mu := platform.MachineID(u)
			c := demand * in.Failures.Inflation(i, mu) * in.Platform.Time(i, mu)
			if c < bestCost {
				bestCost = c
				best = mu
			}
		}
		if best == platform.NoMachine {
			return nil, fmt.Errorf("oto: ran out of machines at task T%d", int(i)+1)
		}
		used[best] = true
		x[i] = demand * in.Failures.Inflation(i, best)
		mp.Assign(i, best)
	}
	return mp, nil
}
