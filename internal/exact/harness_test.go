package exact

import (
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// symmetricInstanceF is symmetricInstance with explicit failure-rate range:
// a chain of n tasks (p types) on m machines drawn from `distinct` column
// specs with f in [fmin, fmax]. High fmax pushes instances into the
// paper's hard high-failure regime where product counts diverge.
func symmetricInstanceF(t testing.TB, n, p, m, distinct int, fmin, fmax float64, seed int64) *core.Instance {
	t.Helper()
	specs := distinct
	if specs < p {
		specs = p
	}
	pr := gen.Default(n, p, specs)
	pr.FMin, pr.FMax = fmin, fmax
	base, err := gen.Chain(pr, gen.RNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	w := make([][]float64, n)
	f := make([][]float64, n)
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		w[i] = make([]float64, m)
		f[i] = make([]float64, m)
		for u := 0; u < m; u++ {
			src := platform.MachineID(u % distinct)
			w[i][u] = base.Platform.Time(id, src)
			f[i][u] = base.Failures.Rate(id, src)
		}
	}
	pl, err := platform.New(w)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := failure.New(f)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInstance(base.App, pl, fm)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// completionOptimum exhaustively enumerates every rule-feasible completion
// of the prefix (machines for order[0..len(prefix))) and returns the best
// from-scratch period (+Inf when no feasible completion exists). ok=false
// when the node cap was hit before the enumeration finished. It shares no
// pruning or pricing with the solver under test: leaves are priced by
// core.Period on a fresh mapping.
func completionOptimum(in *core.Instance, rule core.Rule, order []app.TaskID, prefix []platform.MachineID, nodeCap int) (float64, bool) {
	n, m := in.N(), in.M()
	mp := core.NewMapping(n)
	spec := make([]app.TypeID, m)
	used := make([]bool, m)
	for u := range spec {
		spec[u] = noType
	}
	place := func(j int, u platform.MachineID) {
		i := order[j]
		mp.Assign(i, u)
		spec[u] = in.App.Type(i)
		used[u] = true
	}
	for j, u := range prefix {
		place(j, u)
	}
	best := math.Inf(1)
	nodes := 0
	var rec func(j int) bool
	rec = func(j int) bool {
		nodes++
		if nodes > nodeCap {
			return false
		}
		if j == n {
			if p := core.Period(in, mp); p < best {
				best = p
			}
			return true
		}
		i := order[j]
		ty := in.App.Type(i)
		for u := 0; u < m; u++ {
			switch rule {
			case core.OneToOne:
				if used[u] {
					continue
				}
			case core.Specialized:
				if spec[u] != noType && spec[u] != ty {
					continue
				}
			}
			prevSpec, prevUsed := spec[u], used[u]
			place(j, platform.MachineID(u))
			done := rec(j + 1)
			mp.Unassign(i)
			spec[u], used[u] = prevSpec, prevUsed
			if !done {
				return false
			}
		}
		return true
	}
	return best, rec(len(prefix))
}

// feasiblePrefix draws a rule-feasible prefix of the search order: depth
// tasks assigned to machines chosen by pick (pick returns any int; it is
// reduced modulo the number of feasible machines). The returned prefix may
// be shorter than depth when a task has no feasible machine left.
func feasiblePrefix(in *core.Instance, rule core.Rule, order []app.TaskID, depth int, pick func(i int) int) []platform.MachineID {
	m := in.M()
	spec := make([]app.TypeID, m)
	used := make([]bool, m)
	for u := range spec {
		spec[u] = noType
	}
	var prefix []platform.MachineID
	for j := 0; j < depth && j < len(order); j++ {
		i := order[j]
		ty := in.App.Type(i)
		var feas []platform.MachineID
		for u := 0; u < m; u++ {
			switch rule {
			case core.OneToOne:
				if used[u] {
					continue
				}
			case core.Specialized:
				if spec[u] != noType && spec[u] != ty {
					continue
				}
			}
			feas = append(feas, platform.MachineID(u))
		}
		if len(feas) == 0 {
			break
		}
		u := feas[((pick(j)%len(feas))+len(feas))%len(feas)]
		prefix = append(prefix, u)
		spec[u] = ty
		used[u] = true
	}
	return prefix
}

// boundAt replays a prefix on a fresh searcher and returns it with the
// oracle's admissible lower bound for that node, after checking that the
// searcher's prune decision acts on exactly that bound (checkDecision).
func boundAt(t testing.TB, in *core.Instance, rule core.Rule, prefix []platform.MachineID) (*searcher, float64) {
	t.Helper()
	sv, err := newSolver(in, Options{Rule: rule})
	if err != nil {
		t.Fatal(err)
	}
	s := sv.newSearcher(nil)
	s.push(prefix)
	lb := newBoundOracle(s).bound(len(prefix), math.Inf(1), math.Inf(1))
	checkDecision(t, s, len(prefix), lb, "boundAt")
	return s, lb
}

// prunesAbove reports whether s prunes the node at depth k against an
// incumbent of period limit: locally at the next float above it, or as a
// shared incumbent of exactly limit — either means the bound exceeds limit.
// An admissible decision does neither at the node's completion optimum:
// completionOptimum prices leaves with core.Period, which has the
// search's own load sums to the bit.
func prunesAbove(s *searcher, k int, limit float64) bool {
	inf := math.Inf(1)
	return s.prunes(k, math.Nextafter(limit, inf), inf) || s.prunes(k, inf, limit)
}
