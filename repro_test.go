// Integration tests at the facade level: end-to-end reproduction checks of
// the paper's qualitative claims (the "shape" of the evaluation), plus
// facade API coverage. Heavier statistical campaigns live in
// internal/experiments; these tests keep the repository-level contract.
package microfab_test

import (
	"math"
	"strings"
	"testing"
	"time"

	microfab "microfab"
	"microfab/internal/experiments"
	"microfab/internal/stats"
)

// TestClaimH4wBeatsBaselines reproduces the paper's Figure 5 conclusion:
// over the standard campaign, H1 and H4f are far behind H4w (the paper
// shows multiples, we require >= 1.5x on the mean).
func TestClaimH4wBeatsBaselines(t *testing.T) {
	var h1, h4f, h4w []float64
	for seed := int64(0); seed < 12; seed++ {
		in, err := microfab.GenerateChain(microfab.CampaignParams(100, 5, 50), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []string{"H1", "H4f", "H4w"} {
			mp, err := microfab.Solve(in, h, seed)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := microfab.Evaluate(in, mp)
			if err != nil {
				t.Fatal(err)
			}
			switch h {
			case "H1":
				h1 = append(h1, ev.Period)
			case "H4f":
				h4f = append(h4f, ev.Period)
			case "H4w":
				h4w = append(h4w, ev.Period)
			}
		}
	}
	m1, mf, mw := stats.Mean(h1), stats.Mean(h4f), stats.Mean(h4w)
	if m1 < 1.5*mw {
		t.Fatalf("H1 mean %v not >= 1.5x H4w mean %v", m1, mw)
	}
	if mf < 1.5*mw {
		t.Fatalf("H4f mean %v not >= 1.5x H4w mean %v", mf, mw)
	}
}

// TestClaimHeuristicsWithinSmallFactorOfOptimum reproduces the Figure 10/11
// conclusion: on small instances the informed heuristics sit within a small
// factor of the proven optimum (the paper reports 1.33-1.73 averages; we
// allow 2x per instance for the reduced sample).
func TestClaimHeuristicsWithinSmallFactorOfOptimum(t *testing.T) {
	var ratios []float64
	for seed := int64(0); seed < 8; seed++ {
		in, err := microfab.GenerateChain(microfab.CampaignParams(8, 2, 5), seed)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := microfab.Solve(in, "exact", 0)
		if err != nil {
			t.Fatal(err)
		}
		evOpt, err := microfab.Evaluate(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, h := range []string{"H2", "H3", "H4", "H4w"} {
			mp, err := microfab.Solve(in, h, 0)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := microfab.Evaluate(in, mp)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Period < best {
				best = ev.Period
			}
		}
		ratios = append(ratios, best/evOpt.Period)
	}
	if m := stats.Mean(ratios); m > 1.5 {
		t.Fatalf("best-heuristic mean factor %v from optimum, want <= 1.5", m)
	}
	for _, r := range ratios {
		if r < 1-1e-9 {
			t.Fatalf("heuristic beat the optimum: ratio %v", r)
		}
		if r > 2 {
			t.Fatalf("heuristic factor %v exceeds 2 on a small instance", r)
		}
	}
}

// TestClaimMIPMatchesExactOnSmallInstances: the two independent exact
// paths (simplex+B&B vs DFS) agree — the repository's strongest internal
// consistency check, at facade level.
func TestClaimMIPMatchesExactOnSmallInstances(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		in, err := microfab.GenerateChain(microfab.CampaignParams(6, 2, 4), seed)
		if err != nil {
			t.Fatal(err)
		}
		mipMap, err := microfab.Solve(in, "MIP", 0)
		if err != nil {
			t.Fatal(err)
		}
		exactMap, err := microfab.Solve(in, "exact", 0)
		if err != nil {
			t.Fatal(err)
		}
		evM, _ := microfab.Evaluate(in, mipMap)
		evE, _ := microfab.Evaluate(in, exactMap)
		if math.Abs(evM.Period-evE.Period) > 1e-6*evE.Period {
			t.Fatalf("seed %d: MIP %v != exact %v", seed, evM.Period, evE.Period)
		}
	}
}

// TestClaimSimulatorAgreesWithAnalyticModel: the DES closes the loop on
// eq. (1) — empirical throughput ~ 1/period.
func TestClaimSimulatorAgreesWithAnalyticModel(t *testing.T) {
	in, err := microfab.GenerateChain(microfab.CampaignParams(10, 3, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := microfab.Solve(in, "H4w", 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := microfab.Evaluate(in, mp)
	if err != nil {
		t.Fatal(err)
	}
	thr, err := microfab.MeasureThroughput(in, mp, 3000, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r := thr * ev.Period; r < 0.9 || r > 1.1 {
		t.Fatalf("simulated/analytic throughput ratio %v outside [0.9,1.1]", r)
	}
}

// TestClaimOneToOneOptimalityFigure9: the heuristics never beat the
// polynomial optimal one-to-one baseline in its regime.
func TestClaimOneToOneOptimalityFigure9(t *testing.T) {
	pr := microfab.CampaignParams(30, 10, 30)
	pr.TaskOnlyFailures = true
	in, err := microfab.GenerateChain(pr, 4)
	if err != nil {
		t.Fatal(err)
	}
	oto, err := microfab.Solve(in, "oto", 0)
	if err != nil {
		t.Fatal(err)
	}
	evO, err := microfab.Evaluate(in, oto)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"H2", "H3", "H4w"} {
		mp, err := microfab.Solve(in, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := microfab.Evaluate(in, mp)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Period < evO.Period-1e-6 {
			t.Fatalf("%s beats the optimal one-to-one: %v < %v", h, ev.Period, evO.Period)
		}
	}
}

// TestFacadeEndToEnd drives the whole public API: build, generate, solve,
// split, plan, simulate, figure.
func TestFacadeEndToEnd(t *testing.T) {
	b := microfab.NewBuilder()
	first, last := b.AddChain(0, 1, 0)
	_ = first
	b.AddDep(b.AddTask(2, "side"), last) // side branch merging into the chain tail: a join
	app, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if app.NumTasks() != 4 {
		t.Fatalf("n = %d", app.NumTasks())
	}

	in, err := microfab.GenerateInTree(microfab.CampaignParams(12, 3, 6), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(microfab.Heuristics()) < 7 {
		t.Fatal("heuristic registry too small")
	}
	mp, err := microfab.Solve(in, "H2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := microfab.PlanInputs(in, mp, 50); err != nil {
		t.Fatal(err)
	}
	batches, err := microfab.PlanBatches(in, mp, 50, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := microfab.Simulate(in, mp, microfab.SimOptions{Inputs: batches, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Outputs == 0 {
		t.Fatal("simulation produced nothing")
	}
	if _, err := microfab.Solve(in, "no-such-method", 0); err == nil {
		t.Fatal("unknown method accepted")
	}

	r, err := microfab.Figure(6, microfab.ExpConfig{Draws: 2, Thin: 6, Seed: 1, MIPTimeLimit: time.Second, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out := microfab.RenderFigure(r); !strings.Contains(out, "FIG6") {
		t.Fatal("figure rendering broken")
	}
	if _, err := experiments.Figure(99, experiments.Config{}); err == nil {
		t.Fatal("bogus figure accepted")
	}
}
