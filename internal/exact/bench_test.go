package exact

import (
	"math"
	"runtime"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// benchInstance is the node-bounded campaign instance used by
// TestNodeBudgetReturnsIncumbent (n=10, p=3, m=5, seed 8).
func benchInstance(b *testing.B) *core.Instance {
	b.Helper()
	in, err := gen.Chain(gen.Default(10, 3, 5), gen.RNG(8))
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkExactSolveEvaluator measures the production solver: the DFS
// branch and bound with pricing, loads and the running maximum maintained
// by the pricing-only core.Pricer (the name keeps the historical series
// comparable — the solver priced through the full core.Evaluator until the
// pricing-core refactor). Nodes per second is the metric that matters for
// proving optimality on larger instances.
func BenchmarkExactSolveEvaluator(b *testing.B) {
	in := benchInstance(b)
	var nodes int64
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		res, err := Solve(in, Options{Rule: core.Specialized})
		if err != nil {
			b.Fatal(err)
		}
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
}

// BenchmarkExactSolveFullRecompute is the ablation baseline: the identical
// search tree (same order, same pruning rule) but every candidate priced by
// a full from-scratch partial evaluation, the way all solvers worked before
// the Evaluator existed. Compare nodes/s against BenchmarkExactSolveEvaluator.
func BenchmarkExactSolveFullRecompute(b *testing.B) {
	in := benchInstance(b)
	var nodes int64
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		_, n := fullRecomputeSolve(in, core.Specialized)
		nodes = n
	}
	b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
}

// fullRecomputeSolve mirrors the searcher's tree but re-derives x-values
// and machine loads from scratch (PartialProductCounts + an O(n·m) load
// sweep) at every node, exactly like pricing through core on each step.
func fullRecomputeSolve(in *core.Instance, rule core.Rule) (float64, int64) {
	order := in.App.ReverseTopological()
	m := in.M()
	spec := make([]app.TypeID, m)
	used := make([]bool, m)
	for u := range spec {
		spec[u] = noType
	}
	mp := core.NewMapping(in.N())
	best := math.Inf(1)
	var nodes int64

	loads := func() []float64 {
		x := core.PartialProductCounts(in, mp)
		load := make([]float64, m)
		for i := 0; i < in.N(); i++ {
			id := app.TaskID(i)
			if u := mp.Machine(id); u != platform.NoMachine {
				load[u] += x[i] * in.Platform.Time(id, u)
			}
		}
		return load
	}

	var dfs func(k int)
	dfs = func(k int) {
		nodes++
		if k == len(order) {
			worst := 0.0
			for _, l := range loads() {
				if l > worst {
					worst = l
				}
			}
			if worst < best {
				best = worst
			}
			return
		}
		i := order[k]
		ty := in.App.Type(i)
		for u := 0; u < m; u++ {
			mu := platform.MachineID(u)
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
			// Full-recompute trial: price the whole partial mapping.
			mp.Assign(i, mu)
			if loads()[u] >= best {
				mp.Unassign(i)
				continue
			}
			prevSpec, prevUsed := spec[u], used[u]
			spec[u], used[u] = ty, true
			dfs(k + 1)
			spec[u], used[u] = prevSpec, prevUsed
			mp.Unassign(i)
		}
	}
	dfs(0)
	return best, nodes
}

// TestFullRecomputeReferenceAgrees pins the benchmark baseline to the
// production solver: both must find the same optimal period.
func TestFullRecomputeReferenceAgrees(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		in, err := gen.Chain(gen.Default(6, 2, 3), gen.RNG(300+seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(in, Options{Rule: core.Specialized})
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := fullRecomputeSolve(in, core.Specialized)
		if math.Abs(res.Period-ref) > 1e-9*ref {
			t.Fatalf("seed %d: solver %v != full-recompute reference %v", seed, res.Period, ref)
		}
	}
}

// BenchmarkExactParallel measures the scaled-up solver on a symmetric
// n=16 instance that the seed configuration cannot prove quickly: 1 vs
// NumCPU workers, with the lower bound and the dominance rule ablated
// alongside (the bound/dominance=off axes pin their pruning cost/benefit,
// the worker axis the root-split speedup). Every variant runs under the
// same global node cap so nodes/s is comparable across them.
func BenchmarkExactParallel(b *testing.B) {
	in := symmetricInstanceF(b, 16, 2, 8, 4, 0.005, 0.05, 77)
	const cap = 400_000
	variants := []struct {
		name string
		opts Options
	}{
		{"workers=1", Options{Rule: core.Specialized, MaxNodes: cap}},
		{"workers=NumCPU", Options{Rule: core.Specialized, MaxNodes: cap, Workers: runtime.NumCPU()}},
		{"workers=1/bound=off", Options{Rule: core.Specialized, MaxNodes: cap, DisableBound: true}},
		{"workers=NumCPU/bound=off", Options{Rule: core.Specialized, MaxNodes: cap, DisableBound: true, Workers: runtime.NumCPU()}},
		{"workers=1/dominance=off", Options{Rule: core.Specialized, MaxNodes: cap, DisableDominance: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var nodes int64
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				res, err := Solve(in, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				nodes += res.Nodes
			}
			b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkAssignmentBound measures the one-to-one bottleneck-assignment
// bound at a fixed interior node: the argmin-collision scan plus the
// bottleneck assignment over live completion prices. Symmetric machines
// make the unplaced tasks share their cheapest-landing machine, so the scan
// never takes the free skip — this is the paid path the search charges for
// when the bound fires.
func BenchmarkAssignmentBound(b *testing.B) {
	b.Run("one-to-one", func(b *testing.B) {
		in := symmetricInstanceF(b, 12, 2, 14, 4, 0, 0.05, 31)
		prefix := feasiblePrefix(in, core.OneToOne, in.App.ReverseTopological(), 2, func(j int) int { return j })
		s := assignAt(b, in, prefix)
		k := len(prefix)
		if _, ok := s.assignmentBound(k); !ok {
			b.Fatal("benchmark node skipped the assignment bound (no argmin collision)")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.assignmentBound(k)
		}
	})
}
