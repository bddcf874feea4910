package experiments

import (
	"strings"
	"testing"
	"time"
)

func quickCfg() Config {
	return Config{Draws: 3, Thin: 4, Seed: 7, MIPTimeLimit: 10 * time.Second}
}

func TestFig5Shape(t *testing.T) {
	r, err := Figure(5, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, pt := range r.Points {
		// The paper's headline comparison: the naive baselines H1 and
		// H4f trail the informed heuristics.
		h4w := pt.Series["H4w"].Mean
		if pt.Series["H1"].Mean <= h4w {
			t.Fatalf("n=%d: H1 (%v) not worse than H4w (%v)", pt.X, pt.Series["H1"].Mean, h4w)
		}
		if pt.Series["H4f"].Mean <= h4w {
			t.Fatalf("n=%d: H4f (%v) not worse than H4w (%v)", pt.X, pt.Series["H4f"].Mean, h4w)
		}
		for _, name := range r.SeriesOrder {
			if pt.Series[name].Mean <= 0 {
				t.Fatalf("n=%d: %s has nonpositive period", pt.X, name)
			}
		}
	}
}

func TestFig5PeriodGrowsWithTasks(t *testing.T) {
	r, err := Figure(5, Config{Draws: 5, Thin: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 2 {
		t.Skip("not enough points after thinning")
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	for _, name := range r.SeriesOrder {
		if last.Series[name].Mean <= first.Series[name].Mean {
			t.Fatalf("%s: period did not grow with n (%v -> %v)",
				name, first.Series[name].Mean, last.Series[name].Mean)
		}
	}
}

func TestFig9OtoDominates(t *testing.T) {
	r, err := Figure(9, Config{Draws: 3, Thin: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range r.Points {
		oto := pt.Series["OtO"].Mean
		for _, name := range []string{"H2", "H3", "H4w"} {
			if pt.Series[name].Mean < oto-1e-6 {
				t.Fatalf("p=%d: %s (%v) beats the optimal one-to-one (%v)",
					pt.X, name, pt.Series[name].Mean, oto)
			}
		}
	}
}

func TestFig10MIPDominatesHeuristics(t *testing.T) {
	if testing.Short() {
		t.Skip("exact solves are slow; skipped with -short")
	}
	// The node budget binds before the time limit: cheap and deterministic.
	// Large-n draws are dropped as unproven; n=2 always solves.
	cfg := Config{Draws: 1, Thin: 5, Seed: 11, MIPTimeLimit: 15 * time.Second, MIPMaxNodes: 200}
	r, err := Figure(10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	solvedSomething := false
	for _, pt := range r.Points {
		if pt.Solved == 0 {
			continue
		}
		solvedSomething = true
		mip := pt.Series["MIP"].Mean
		for _, name := range []string{"H1", "H2", "H3", "H4", "H4w", "H4f"} {
			if pt.Series[name].Mean < mip-1e-6 {
				t.Fatalf("n=%d: %s (%v) beats the proven optimum (%v)",
					pt.X, name, pt.Series[name].Mean, mip)
			}
		}
	}
	if !solvedSomething {
		t.Fatal("MIP never solved any draw; budgets far too small")
	}
}

func TestFig11RatiosAtLeastOne(t *testing.T) {
	if testing.Short() {
		t.Skip("exact solves are slow; skipped with -short")
	}
	cfg := Config{Draws: 1, Thin: 5, Seed: 13, MIPTimeLimit: 15 * time.Second, MIPMaxNodes: 200}
	r, err := Figure(11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range r.Points {
		for name, s := range pt.Series {
			if s.N > 0 && s.Mean < 1-1e-6 {
				t.Fatalf("n=%d: %s ratio %v below 1", pt.X, name, s.Mean)
			}
		}
	}
	if mr := MeanRatio(r, "H4w"); mr != 0 && mr < 1 {
		t.Fatalf("H4w mean ratio %v below 1", mr)
	}
}

func TestFigureDispatch(t *testing.T) {
	if _, err := Figure(4, quickCfg()); err == nil {
		t.Fatal("figure 4 accepted")
	}
	for _, n := range Numbers() {
		if n < 5 || n > 12 {
			t.Fatalf("unexpected figure number %d", n)
		}
	}
}

func TestRenderContainsSeries(t *testing.T) {
	r, err := Figure(6, Config{Draws: 2, Thin: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := Render(r)
	for _, name := range r.SeriesOrder {
		if !strings.Contains(out, name) {
			t.Fatalf("render lacks series %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "FIG6") {
		t.Fatal("render lacks the figure id")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Figure(7, Config{Draws: 2, Thin: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure(7, Config{Draws: 2, Thin: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if Render(a) != Render(b) {
		t.Fatal("same seed produced different campaigns")
	}
}

func TestFig8HighFailureBlowup(t *testing.T) {
	r, err := Figure(8, Config{Draws: 3, Thin: 9, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 2 {
		t.Skip("too thin")
	}
	// The paper's observation: periods increase dramatically with n in
	// the high-failure regime — superlinear growth for every series.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	ratioN := float64(last.X) / float64(first.X)
	for _, name := range r.SeriesOrder {
		growth := last.Series[name].Mean / first.Series[name].Mean
		if growth < ratioN {
			t.Fatalf("%s grew only %.1fx over a %.1fx task increase", name, growth, ratioN)
		}
	}
}
