package oto

import (
	"fmt"
	"math"

	"microfab/internal/core"
	"microfab/internal/platform"
)

// The one-to-one problem is NP-hard in general (Theorem 2); the
// exhaustive search below is the reference the polynomial solvers and the
// greedy fallback are cross-checked against on tiny instances.

// bruteForce enumerates every injective task->machine assignment and
// returns one with the minimum period. The walk is root-first on a
// core.Evaluator, so each node prices its task incrementally and branches
// whose machine load already reaches the best period are cut; results are
// identical to the unpruned enumeration. Exponential: use only when m^n is
// tiny (it guards n <= 10 and m <= 10).
func bruteForce(in *core.Instance) (*core.Mapping, error) {
	if err := check(in); err != nil {
		return nil, err
	}
	n, m := in.N(), in.M()
	if n > 10 || m > 10 {
		return nil, fmt.Errorf("oto: brute force refused for n=%d, m=%d (too large)", n, m)
	}
	order := in.App.ReverseTopological()
	ev := core.NewEvaluator(in)
	used := make([]bool, m)
	trial := make([]float64, n*m) // depth k owns trial[k·m : (k+1)·m]
	var best *core.Mapping
	bestPeriod := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			if p, _ := ev.Best(); p < bestPeriod {
				bestPeriod = p
				best = ev.Mapping()
			}
			return
		}
		i := order[k]
		// One batch pass prices every landing of i; per-depth rows keep the
		// values valid across the recursive calls below.
		row := trial[k*m : (k+1)*m]
		ok := ev.TrialAll(i, row)
		for u := 0; u < m; u++ {
			if used[u] {
				continue
			}
			mu := platform.MachineID(u)
			if ok && row[u] >= bestPeriod {
				continue // loads only grow down the branch
			}
			used[u] = true
			_ = ev.Assign(i, mu)
			rec(k + 1)
			ev.Unassign(i)
			used[u] = false
		}
	}
	rec(0)
	if best == nil {
		return nil, fmt.Errorf("oto: brute force found no assignment")
	}
	return best, nil
}
