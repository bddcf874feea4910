package heuristics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/platform"
)

// H2 is the first binary-search heuristic ("potential optimization",
// Algorithm 2). For each machine the tasks are ranked by execution time;
// rank[i][u] = 1 means machine u is at its best on task i. The heuristic
// binary-searches the period: for a candidate period it assigns tasks
// backward, each to the admissible machine with the lowest rank (ties
// broken by lower w[i][u], then lower index) whose load would stay within
// the candidate period. If every task fits the period is feasible and the
// search descends; otherwise it ascends.
//
// Following the paper's prose (the pseudocode stops at the first machine,
// the text says "otherwise we try to assign Ti to the next machine"), the
// scan continues down the priority list until a machine fits.
func H2(in *core.Instance, _ *rand.Rand, opts Options) (*core.Mapping, error) {
	if err := validate(in); err != nil {
		return nil, err
	}
	prio := rankPriorities(in)
	return binarySearch(in, opts, func(s *state, i app.TaskID, budget float64) platform.MachineID {
		ty := s.in.App.Type(i)
		trial := s.trialRow(i)
		for _, u := range prio[i] {
			if !s.canUse(u, ty) {
				continue
			}
			if trial[u] <= budget {
				return u
			}
		}
		return platform.NoMachine
	})
}

// rankPriorities builds, for every task, the machines sorted by
// (rank[i][u] asc, w[i][u] asc, u asc) where rank[i][u] is the 1-based rank
// of task i in machine u's ascending execution-time order.
func rankPriorities(in *core.Instance) [][]platform.MachineID {
	n, m := in.N(), in.M()
	tim := core.TimeTable(in)
	// Times are validated finite and positive, so sorting by (time, index)
	// is a total order that reproduces a stable sort by time.
	rank := make([]int, n*m)
	idx := make([]int, n)
	for u := 0; u < m; u++ {
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int {
			if ta, tb := tim[a*m+u], tim[b*m+u]; ta != tb {
				if ta < tb {
					return -1
				}
				return 1
			}
			return a - b
		})
		for r, i := range idx {
			rank[i*m+u] = r + 1
		}
	}
	prio := make([][]platform.MachineID, n)
	slab := make([]platform.MachineID, n*m)
	for i := range prio {
		ms := slab[i*m : i*m+m : i*m+m]
		for u := range ms {
			ms[u] = platform.MachineID(u)
		}
		rk, w := rank[i*m:i*m+m], tim[i*m:i*m+m]
		slices.SortFunc(ms, func(a, b platform.MachineID) int {
			if rk[a] != rk[b] {
				return rk[a] - rk[b]
			}
			if w[a] != w[b] {
				if w[a] < w[b] {
					return -1
				}
				return 1
			}
			return int(a) - int(b)
		})
		prio[i] = ms
	}
	return prio
}

// pickFunc chooses a machine for task i under a period budget, or returns
// NoMachine when the budget cannot be met.
type pickFunc func(s *state, i app.TaskID, budget float64) platform.MachineID

// binarySearch drives the H2/H3 search. It first runs one pass with an
// infinite budget — which always succeeds thanks to the feasibility guard —
// to obtain a feasible period, then halves the [0, feasible] interval down
// to the configured granularity, keeping the best complete assignment seen.
// Every attempt reuses one state and one root-first order.
func binarySearch(in *core.Instance, opts Options, pick pickFunc) (*core.Mapping, error) {
	order := in.App.ReverseTopological()
	s := newState(in)
	attempt := func(budget float64) (*core.Mapping, float64, bool) {
		s.reset()
		for _, i := range order {
			u := pick(s, i, budget)
			if u == platform.NoMachine {
				return nil, 0, false
			}
			s.assign(i, u)
		}
		return s.mapping(), s.maxLoad(), true
	}

	best, bestPeriod, ok := attempt(math.Inf(1))
	if !ok {
		return nil, fmt.Errorf("heuristics: no feasible specialized mapping found")
	}
	lo, hi := 0.0, bestPeriod
	gran := opts.granularity()
	for iter := 0; hi-lo > gran && iter < opts.maxIters(); iter++ {
		mid := lo + float64((hi-lo)/2)
		if m, p, ok := attempt(mid); ok {
			if p < bestPeriod {
				best, bestPeriod = m, p
			}
			hi = mid
		} else {
			lo = mid
		}
	}
	return best, nil
}
