// Benchmarks pitting the incremental Evaluator against from-scratch
// Evaluate on the mutation pattern that dominates every solver in this
// repository: remap one frontier task of an otherwise-complete mapping and
// read the new period. This is the per-node work of the exact DFS (at full
// depth), of the greedy candidate scans, and of any local-search move.
//
// Run with: go test -bench='EvaluateFull|EvaluatorIncremental' -benchmem ./internal/core
package core_test

import (
	"fmt"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// benchSetup draws an instance (chain or 3-branch in-tree) with a complete
// round-robin mapping and returns the frontier tasks (the sources, whose
// remapping reprices only themselves — the search-stack hot case).
func benchSetup(b *testing.B, shape string, n int) (*core.Instance, *core.Mapping, []app.TaskID) {
	b.Helper()
	pr := gen.Default(n, 5, 2+n/5)
	var in *core.Instance
	var err error
	switch shape {
	case "chain":
		in, err = gen.Chain(pr, gen.RNG(int64(n)))
	default:
		in, err = gen.InTree(pr, 3, gen.RNG(int64(n)))
	}
	if err != nil {
		b.Fatal(err)
	}
	mp := core.NewMapping(in.N())
	for i := 0; i < in.N(); i++ {
		mp.Assign(app.TaskID(i), platform.MachineID(i%in.M()))
	}
	return in, mp, in.App.Sources()
}

func benchmarkEvaluateFull(b *testing.B, shape string, n int) {
	in, mp, frontier := benchSetup(b, shape, n)
	m := in.M()
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := frontier[k%len(frontier)]
		mp.Assign(i, platform.MachineID(k%m))
		ev, err := core.Evaluate(in, mp)
		if err != nil {
			b.Fatal(err)
		}
		_ = ev.Period
	}
}

func benchmarkEvaluatorIncremental(b *testing.B, shape string, n int) {
	in, mp, frontier := benchSetup(b, shape, n)
	m := in.M()
	ev, err := core.NewEvaluatorFrom(in, mp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := frontier[k%len(frontier)]
		if err := ev.Assign(i, platform.MachineID(k%m)); err != nil {
			b.Fatal(err)
		}
		p, _ := ev.Best()
		_ = p
	}
}

func BenchmarkEvaluateFullChain20(b *testing.B)  { benchmarkEvaluateFull(b, "chain", 20) }
func BenchmarkEvaluateFullChain50(b *testing.B)  { benchmarkEvaluateFull(b, "chain", 50) }
func BenchmarkEvaluateFullChain100(b *testing.B) { benchmarkEvaluateFull(b, "chain", 100) }

func BenchmarkEvaluateFullInTree20(b *testing.B)  { benchmarkEvaluateFull(b, "intree", 20) }
func BenchmarkEvaluateFullInTree50(b *testing.B)  { benchmarkEvaluateFull(b, "intree", 50) }
func BenchmarkEvaluateFullInTree100(b *testing.B) { benchmarkEvaluateFull(b, "intree", 100) }

func BenchmarkEvaluatorIncrementalChain20(b *testing.B) {
	benchmarkEvaluatorIncremental(b, "chain", 20)
}
func BenchmarkEvaluatorIncrementalChain50(b *testing.B) {
	benchmarkEvaluatorIncremental(b, "chain", 50)
}
func BenchmarkEvaluatorIncrementalChain100(b *testing.B) {
	benchmarkEvaluatorIncremental(b, "chain", 100)
}

func BenchmarkEvaluatorIncrementalInTree20(b *testing.B) {
	benchmarkEvaluatorIncremental(b, "intree", 20)
}
func BenchmarkEvaluatorIncrementalInTree50(b *testing.B) {
	benchmarkEvaluatorIncremental(b, "intree", 50)
}
func BenchmarkEvaluatorIncrementalInTree100(b *testing.B) {
	benchmarkEvaluatorIncremental(b, "intree", 100)
}

// benchSplitSetup draws an instance with a random complete split mapping
// plus a bank of precomputed replacement rows, so the benchmark loops
// measure pricing only, not RNG work.
func benchSplitSetup(b *testing.B, shape string, n, m int) (*core.Instance, *core.SplitMapping, [][]float64) {
	b.Helper()
	var in *core.Instance
	var err error
	if shape == "intree" {
		in, err = gen.InTree(gen.Default(n, 5, m), 8, gen.RNG(int64(n*m)))
	} else {
		in, err = gen.Chain(gen.Default(n, 5, m), gen.RNG(int64(n*m)))
	}
	if err != nil {
		b.Fatal(err)
	}
	rng := gen.RNG(int64(n + m))
	split := randomSplit(in, rng)
	rows := make([][]float64, 64)
	scratch := core.NewSplitMapping(in.N(), in.M())
	for k := range rows {
		setRandomRow(scratch, app.TaskID(k%in.N()), in.M(), rng)
		rows[k] = make([]float64, in.M())
		for u := 0; u < in.M(); u++ {
			rows[k][u] = scratch.Share(app.TaskID(k%in.N()), platform.MachineID(u))
		}
	}
	return in, split, rows
}

// BenchmarkSplitFullReprice is the pre-SplitEvaluator cost of one
// water-filling probe: mutate one task's share row, then re-walk the full
// n×m share matrix through EvaluateSplit.
func BenchmarkSplitFullReprice(b *testing.B) {
	for _, size := range []struct {
		shape string
		n, m  int
	}{{"chain", 50, 10}, {"chain", 100, 50}, {"intree", 100, 50}} {
		b.Run(fmt.Sprintf("%s_n=%d_m=%d", size.shape, size.n, size.m), func(b *testing.B) {
			in, split, rows := benchSplitSetup(b, size.shape, size.n, size.m)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				i := app.TaskID(k % in.N())
				row := rows[k%len(rows)]
				for u := 0; u < in.M(); u++ {
					split.SetShare(i, platform.MachineID(u), row[u])
				}
				ev, err := core.EvaluateSplit(in, split)
				if err != nil {
					b.Fatal(err)
				}
				_ = ev.Period
			}
		})
	}
}

// BenchmarkSplitEvaluatorSetShares is the same probe through the
// incremental engine: SetShares reprices only the task and its in-tree
// prefix. Compare ns/op against BenchmarkSplitFullReprice (the acceptance
// bar is >= 5x).
func BenchmarkSplitEvaluatorSetShares(b *testing.B) {
	for _, size := range []struct {
		shape string
		n, m  int
	}{{"chain", 50, 10}, {"chain", 100, 50}, {"intree", 100, 50}} {
		b.Run(fmt.Sprintf("%s_n=%d_m=%d", size.shape, size.n, size.m), func(b *testing.B) {
			in, split, rows := benchSplitSetup(b, size.shape, size.n, size.m)
			e, err := core.NewSplitEvaluator(in, split)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				i := app.TaskID(k % in.N())
				if err := e.SetShares(i, rows[k%len(rows)]); err != nil {
					b.Fatal(err)
				}
				_ = e.Period()
			}
		})
	}
}

// BenchmarkEvaluatorPushPop measures the exact solver's per-node pattern in
// isolation: a full root-first push of every task followed by a full pop,
// i.e. 2n Evaluator operations per iteration.
func BenchmarkEvaluatorPushPop(b *testing.B) {
	for _, n := range []int{20, 50, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in, _, _ := benchSetup(b, "chain", n)
			ev := core.NewEvaluator(in)
			order := in.App.ReverseTopological()
			m := in.M()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				for d, i := range order {
					_ = ev.Assign(i, platform.MachineID((d+k)%m))
				}
				for d := len(order) - 1; d >= 0; d-- {
					ev.Unassign(order[d])
				}
			}
		})
	}
}

// BenchmarkPricerPushPop is the same pattern through the pricing-only
// mode — the per-node cost the exact DFS actually pays after dropping the
// ledger. Compare ns/op against BenchmarkEvaluatorPushPop.
func BenchmarkPricerPushPop(b *testing.B) {
	for _, n := range []int{20, 50, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in, _, _ := benchSetup(b, "chain", n)
			pr := core.NewPricer(in)
			order := in.App.ReverseTopological()
			m := in.M()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				for d, i := range order {
					_ = pr.Assign(i, platform.MachineID((d+k)%m))
				}
				for d := len(order) - 1; d >= 0; d-- {
					pr.Unassign(order[d])
				}
				_ = pr.Max()
			}
		})
	}
}
