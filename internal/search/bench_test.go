// Benchmarks for the hot loop of the search layer: pricing one
// neighborhood move. The incremental engine prices the move read-only
// through Evaluator.TrialMove, exactly as every probe of the search does;
// the ablation baseline prices the same move the way a pre-Evaluator
// search would — mutate the mapping and re-derive the period from scratch
// with core.PeriodE. The nodes-per-second gap is what makes polish passes
// affordable inside the parallel campaigns (acceptance bar: >= 5x).
// BenchmarkHillClimbPolish and BenchmarkSteepestDescent measure the whole
// descent loop.
//
// Run with: go test -bench 'MovePricing|HillClimbPolish|SteepestDescent' -benchmem ./internal/search
package search

import (
	"fmt"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/platform"
)

// benchMoveSetup draws an 8-branch in-tree (short repricing prefixes, the
// shape move loops see in practice) with an H4w seed, plus a precomputed
// cycle of admissible relocations. kind selects which tasks move:
// "frontier" relocates source tasks only (nothing feeds them, so a move
// reprices exactly one task — the dominant cheap case), "interior"
// relocates every task (a move reprices the task plus its branch prefix).
func benchMoveSetup(b *testing.B, kind string, n, m int) (*core.Instance, *core.Mapping, *engine, []move) {
	b.Helper()
	in, err := gen.InTree(gen.Default(n, 5, m), 8, gen.RNG(int64(n)))
	if err != nil {
		b.Fatal(err)
	}
	seed, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := newEngine(in, seed, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	tasks := in.App.Sources()
	if kind == "interior" {
		tasks = tasks[:0]
		for i := 0; i < in.N(); i++ {
			tasks = append(tasks, app.TaskID(i))
		}
	}
	var moves []move
	for _, id := range tasks {
		for v := 0; v < in.M(); v++ {
			mv := platform.MachineID(v)
			if e.admissible(id, mv) {
				moves = append(moves, move{kind: relocateMove, i: id, v: mv})
				break
			}
		}
	}
	if len(moves) == 0 {
		b.Fatal("no admissible moves on the benchmark instance")
	}
	return in, seed, e, moves
}

func BenchmarkMovePricingIncremental(b *testing.B) {
	for _, c := range []struct {
		kind string
		n, m int
	}{{"frontier", 50, 10}, {"frontier", 120, 20}, {"interior", 50, 10}, {"interior", 120, 20}} {
		b.Run(fmt.Sprintf("%s_n=%d_m=%d", c.kind, c.n, c.m), func(b *testing.B) {
			_, _, e, moves := benchMoveSetup(b, c.kind, c.n, c.m)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				_ = e.price(moves[k%len(moves)]) // one full probe
			}
		})
	}
}

// BenchmarkMovePricingFullRecompute prices the identical probe cycle by
// mutating the mapping and recomputing the period from scratch — the only
// option before the Evaluator existed.
func BenchmarkMovePricingFullRecompute(b *testing.B) {
	for _, c := range []struct {
		kind string
		n, m int
	}{{"frontier", 50, 10}, {"frontier", 120, 20}, {"interior", 50, 10}, {"interior", 120, 20}} {
		b.Run(fmt.Sprintf("%s_n=%d_m=%d", c.kind, c.n, c.m), func(b *testing.B) {
			in, seed, _, moves := benchMoveSetup(b, c.kind, c.n, c.m)
			mp := seed.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				mv := moves[k%len(moves)]
				u := mp.Machine(mv.i)
				mp.Assign(mv.i, mv.v)
				p, err := core.PeriodE(in, mp)
				if err != nil {
					b.Fatal(err)
				}
				mp.Assign(mv.i, u)
				_ = p
			}
		})
	}
}

// BenchmarkHillClimbPolish measures a whole campaign-sized polish pass
// from the H4w seed. probes/s is the search layer's work-rate metric the
// CI bench artifact tracks.
func BenchmarkHillClimbPolish(b *testing.B) {
	in, err := gen.Chain(gen.Default(50, 5, 12), gen.RNG(3))
	if err != nil {
		b.Fatal(err)
	}
	seed, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var probes int64
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		res, err := Polish(in, seed, "ls", core.Specialized, nil, 2000)
		if err != nil {
			b.Fatal(err)
		}
		probes += int64(res.Probes)
	}
	b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/s")
}

// BenchmarkAnnealPolish measures the annealing flavor of the same pass.
func BenchmarkAnnealPolish(b *testing.B) {
	in, err := gen.Chain(gen.Default(50, 5, 12), gen.RNG(3))
	if err != nil {
		b.Fatal(err)
	}
	seed, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var probes int64
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		res, err := Polish(in, seed, "anneal", core.Specialized, gen.RNG(int64(k)), 2000)
		if err != nil {
			b.Fatal(err)
		}
		probes += int64(res.Probes)
	}
	b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/s")
}

// BenchmarkSteepestDescent pins the critical-machine filter's payoff on
// the shape it is built for (wide in-trees: short successor chains, so
// most tasks provably cannot lower the critical load): one full steepest
// descent from a random H1 seed, filter on vs off. The refined mapping is
// identical in both variants (TestFilterResultInvariant); only the probe
// count and the wall clock differ.
func BenchmarkSteepestDescent(b *testing.B) {
	for _, variant := range []struct {
		name   string
		filter bool
	}{{"filter=on", true}, {"filter=off", false}} {
		b.Run(variant.name, func(b *testing.B) {
			in, err := gen.InTree(gen.Default(120, 5, 20), 8, gen.RNG(120))
			if err != nil {
				b.Fatal(err)
			}
			seed, err := heuristics.H1(in, gen.RNG(3), heuristics.Options{})
			if err != nil {
				b.Fatal(err)
			}
			tune := func(e *engine) { e.filter = variant.filter }
			var probes int64
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				res, err := hillClimb(in, seed, DefaultOptions(), tune)
				if err != nil {
					b.Fatal(err)
				}
				probes += int64(res.Probes)
			}
			b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/s")
		})
	}
}
