// Benchmarks regenerating the paper's evaluation (one per figure) plus
// ablation benches for the model extensions beyond the paper (divisible
// tasks, reconfiguration-priced general mappings).
//
// Each figure bench runs its campaign at a reduced draw count (benchmarks
// must stay minutes, not hours; cmd/mfexp runs paper-scale campaigns) and
// reports the mean H4w period of the last x-point as a custom metric, so
// regressions in either speed or solution quality are visible.
//
// Run with: go test -bench=. -benchmem
package microfab_test

import (
	"testing"
	"time"

	microfab "microfab"
	"microfab/internal/core"
	"microfab/internal/experiments"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/sim"
)

// benchFigure runs one figure campaign per iteration and reports the mean
// period (ms) of the reference series at the last point.
func benchFigure(b *testing.B, num int, cfg experiments.Config, refSeries string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure(num, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("no points")
		}
		// Report the reference series at the last point carrying data
		// (MIP figures legitimately leave budget-exceeded points empty).
		for k := len(r.Points) - 1; k >= 0; k-- {
			if s, ok := r.Points[k].Series[refSeries]; ok && s.N > 0 {
				last = s.Mean
				break
			}
		}
	}
	b.ReportMetric(last, "ms_"+refSeries)
}

func BenchmarkFig05(b *testing.B) {
	benchFigure(b, 5, experiments.Config{Draws: 3, Thin: 2, Seed: 1}, "H4w")
}

func BenchmarkFig06(b *testing.B) {
	benchFigure(b, 6, experiments.Config{Draws: 3, Thin: 2, Seed: 1}, "H4w")
}

func BenchmarkFig07(b *testing.B) {
	benchFigure(b, 7, experiments.Config{Draws: 3, Thin: 2, Seed: 1}, "H4w")
}

func BenchmarkFig08(b *testing.B) {
	benchFigure(b, 8, experiments.Config{Draws: 3, Thin: 2, Seed: 1}, "H2")
}

func BenchmarkFig09(b *testing.B) {
	benchFigure(b, 9, experiments.Config{Draws: 3, Thin: 2, Seed: 1}, "OtO")
}

// The MIP figures are bounded tightly: few draws, thin grids, short exact
// budgets. They still exercise the full simplex + branch-and-bound path.
func BenchmarkFig10(b *testing.B) {
	benchFigure(b, 10, experiments.Config{Draws: 2, Thin: 4, Seed: 1, MIPTimeLimit: 3 * time.Second}, "MIP")
}

func BenchmarkFig11(b *testing.B) {
	benchFigure(b, 11, experiments.Config{Draws: 2, Thin: 4, Seed: 1, MIPTimeLimit: 3 * time.Second}, "H4w")
}

func BenchmarkFig12(b *testing.B) {
	benchFigure(b, 12, experiments.Config{Draws: 2, Thin: 5, Seed: 1, MIPTimeLimit: 3 * time.Second}, "H4w")
}

// --- Sequential vs parallel engine ---------------------------------------

// benchFigureWorkers reruns a heuristic-only campaign with a fixed worker
// count. Compare the Sequential/Parallel pairs to see the experiment
// engine's scaling on your hardware; the outputs are byte-identical by
// construction, only the wall time changes.
func benchFigureWorkers(b *testing.B, num, workers int) {
	b.Helper()
	cfg := experiments.Config{Draws: 6, Thin: 2, Seed: 1, Workers: workers}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure(num, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig05Sequential(b *testing.B) { benchFigureWorkers(b, 5, 1) }
func BenchmarkFig05Parallel(b *testing.B)   { benchFigureWorkers(b, 5, 0) }
func BenchmarkFig09Sequential(b *testing.B) { benchFigureWorkers(b, 9, 1) }
func BenchmarkFig09Parallel(b *testing.B)   { benchFigureWorkers(b, 9, 0) }

// --- Ablations -----------------------------------------------------------

// benchHeuristic measures one heuristic on a fixed mid-size instance and
// reports its achieved period.
func benchHeuristic(b *testing.B, name string, n, p, m int) {
	b.Helper()
	in, err := gen.Chain(gen.Default(n, p, m), gen.RNG(99))
	if err != nil {
		b.Fatal(err)
	}
	h, err := heuristics.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	var period float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp, err := h.Fn(in, gen.RNG(1), heuristics.Options{})
		if err != nil {
			b.Fatal(err)
		}
		period = core.Period(in, mp)
	}
	b.ReportMetric(period, "ms_period")
}

func BenchmarkHeuristicH1(b *testing.B)  { benchHeuristic(b, "H1", 100, 5, 20) }
func BenchmarkHeuristicH2(b *testing.B)  { benchHeuristic(b, "H2", 100, 5, 20) }
func BenchmarkHeuristicH2r(b *testing.B) { benchHeuristic(b, "H2r", 100, 5, 20) }
func BenchmarkHeuristicH3(b *testing.B)  { benchHeuristic(b, "H3", 100, 5, 20) }
func BenchmarkHeuristicH4(b *testing.B)  { benchHeuristic(b, "H4", 100, 5, 20) }
func BenchmarkHeuristicH4w(b *testing.B) { benchHeuristic(b, "H4w", 100, 5, 20) }
func BenchmarkHeuristicH4f(b *testing.B) { benchHeuristic(b, "H4f", 100, 5, 20) }

// BenchmarkAblationSplit compares the divisible-task extension against the
// plain integral H4w (see heuristics.H4wSplit): the reported metric is the
// split mapping's period; compare with BenchmarkHeuristicH4wRoomy's.
func BenchmarkAblationSplit(b *testing.B) {
	pr := gen.Default(40, 5, 14)
	pr.FMin, pr.FMax = 0, 0.10
	in, err := gen.Chain(pr, gen.RNG(2010))
	if err != nil {
		b.Fatal(err)
	}
	var period float64
	for i := 0; i < b.N; i++ {
		sp, err := heuristics.H4wSplit(in, nil, heuristics.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ev, err := core.EvaluateSplit(in, sp)
		if err != nil {
			b.Fatal(err)
		}
		period = ev.Period
	}
	b.ReportMetric(period, "ms_period")
}

// BenchmarkHeuristicH4wRoomy is the integral baseline for AblationSplit on
// the identical instance.
func BenchmarkHeuristicH4wRoomy(b *testing.B) {
	pr := gen.Default(40, 5, 14)
	pr.FMin, pr.FMax = 0, 0.10
	in, err := gen.Chain(pr, gen.RNG(2010))
	if err != nil {
		b.Fatal(err)
	}
	var period float64
	for i := 0; i < b.N; i++ {
		mp, err := heuristics.H4w(in, nil, heuristics.Options{})
		if err != nil {
			b.Fatal(err)
		}
		period = core.Period(in, mp)
	}
	b.ReportMetric(period, "ms_period")
}

// BenchmarkAblationGeneralReconfig sweeps the reconfiguration-cost knob of
// the general-mapping greedy at a representative value, reporting the
// effective period including the penalty (see heuristics.GeneralH4w and
// core.ReconfigEvaluate).
func BenchmarkAblationGeneralReconfig(b *testing.B) {
	in, err := gen.Chain(gen.Default(30, 4, 8), gen.RNG(17))
	if err != nil {
		b.Fatal(err)
	}
	var period float64
	for i := 0; i < b.N; i++ {
		mp, err := heuristics.GeneralH4w(in, 200)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := core.ReconfigEvaluate(in, mp, 200)
		if err != nil {
			b.Fatal(err)
		}
		period = ev.Period
	}
	b.ReportMetric(period, "ms_period")
}

// BenchmarkSimulator measures the discrete-event engine's event rate on a
// mapped chain (substrate performance, not in the paper).
func BenchmarkSimulator(b *testing.B) {
	in, err := gen.Chain(gen.Default(20, 4, 8), gen.RNG(5))
	if err != nil {
		b.Fatal(err)
	}
	mp, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		b.Fatal(err)
	}
	batches, err := sim.PlanBatches(in, mp, 200, 1.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		st, err := sim.Run(in, mp, sim.Options{Inputs: batches, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		events = st.Events
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkMIPSolve measures one exact solve end to end (model build,
// simplex, branch and bound) at the paper's Figure 10 scale.
func BenchmarkMIPSolve(b *testing.B) {
	in, err := gen.Chain(gen.Default(7, 2, 5), gen.RNG(123))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		mp, err := microfab.Solve(in, "MIP", 0)
		if err != nil {
			b.Fatal(err)
		}
		if !mp.Complete() {
			b.Fatal("incomplete MIP mapping")
		}
	}
}

// BenchmarkOptimalOneToOne measures the Figure 9 baseline (bottleneck
// assignment on a 100x100 problem).
func BenchmarkOptimalOneToOne(b *testing.B) {
	pr := gen.Default(100, 20, 100)
	pr.TaskOnlyFailures = true
	in, err := gen.Chain(pr, gen.RNG(31))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := microfab.Solve(in, "oto", 0); err != nil {
			b.Fatal(err)
		}
	}
}
