package experiments

import (
	"reflect"
	"testing"
)

// TestPolishedParallelMatchesSequential extends the determinism contract
// to polished campaigns: with a post-pass enabled, Workers=1 and
// Workers=8 must still produce byte-identical figures, because every
// (draw, series) pair derives its own polish RNG stream.
func TestPolishedParallelMatchesSequential(t *testing.T) {
	for _, strategy := range []string{"ls", "anneal"} {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			base := Config{Draws: 3, Thin: 4, Seed: 23, Polish: strategy, PolishBudget: 300}
			seq := base
			seq.Workers = 1
			par := base
			par.Workers = 8

			a, err := Figure(6, seq)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Figure(6, par)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("polished Workers=1 and Workers=8 diverge:\n%s\nvs\n%s", Render(a), Render(b))
			}
		})
	}
}

// TestPolishNeverWorsensCampaign compares a polished campaign against the
// plain one, point by point and series by series: the post-pass only
// accepts improving moves (or returns the best-ever mapping), so every
// polished mean period must be <= the unpolished one.
func TestPolishNeverWorsensCampaign(t *testing.T) {
	base := Config{Draws: 3, Thin: 4, Seed: 41, Workers: 4}
	plain, err := Figure(8, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"ls", "anneal"} {
		polished := base
		polished.Polish = strategy
		polished.PolishBudget = 500
		got, err := Figure(8, polished)
		if err != nil {
			t.Fatal(err)
		}
		improvedSomewhere := false
		for pi, pt := range got.Points {
			ref := plain.Points[pi]
			for _, name := range got.SeriesOrder {
				p, r := pt.Series[name], ref.Series[name]
				if p.N != r.N {
					t.Fatalf("%s: point %d series %s: %d draws vs %d", strategy, pt.X, name, p.N, r.N)
				}
				if p.Mean > r.Mean*(1+1e-12) {
					t.Fatalf("%s: point %d series %s: polished mean %v worse than plain %v",
						strategy, pt.X, name, p.Mean, r.Mean)
				}
				if p.Mean < r.Mean*(1-1e-9) {
					improvedSomewhere = true
				}
			}
		}
		if !improvedSomewhere {
			t.Fatalf("%s: polish changed nothing across the whole campaign (suspicious: H1 seeds are far from local optima)", strategy)
		}
	}
}

// TestPolishUnknownStrategy: a bad Config.Polish fails the campaign with
// a descriptive error instead of silently skipping the pass.
func TestPolishUnknownStrategy(t *testing.T) {
	_, err := Figure(6, Config{Draws: 1, Thin: 10, Seed: 1, Polish: "tabu"})
	if err == nil {
		t.Fatal("unknown polish strategy accepted")
	}
}
