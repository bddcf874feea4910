package search

import (
	"fmt"
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/platform"
)

// reproInstances draws the mixed battery every contract test runs over:
// chains and in-trees, standard and high-failure regimes, small to
// campaign-sized.
func reproInstances(t testing.TB) []*core.Instance {
	t.Helper()
	var out []*core.Instance
	add := func(in *core.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	add(gen.Chain(gen.Default(8, 2, 4), gen.RNG(1)))
	add(gen.Chain(gen.Default(20, 4, 10), gen.RNG(2)))
	add(gen.Chain(gen.Default(50, 5, 12), gen.RNG(3)))
	add(gen.InTree(gen.Default(15, 3, 6), 2, gen.RNG(4)))
	add(gen.InTree(gen.Default(30, 4, 8), 3, gen.RNG(5)))
	hf := gen.Default(25, 5, 10)
	hf.FMin, hf.FMax = 0, 0.10
	add(gen.Chain(hf, gen.RNG(6)))
	return out
}

// checkRefined asserts the universal search contract on a result: valid
// rule-respecting complete mapping, period agreeing with a from-scratch
// evaluation, and never worse than the seed.
func checkRefined(t *testing.T, in *core.Instance, seed *core.Mapping, res *Result, label string) {
	t.Helper()
	if res.Mapping == nil || !res.Mapping.Complete() {
		t.Fatalf("%s: incomplete refined mapping", label)
	}
	if err := res.Mapping.CheckRule(in.App, core.Specialized); err != nil {
		t.Fatalf("%s: refined mapping violates the rule: %v", label, err)
	}
	got, err := core.PeriodE(in, res.Mapping)
	if err != nil {
		t.Fatalf("%s: refined mapping does not evaluate: %v", label, err)
	}
	if math.Abs(got-res.Period) > 1e-9*math.Max(1, got) {
		t.Fatalf("%s: reported period %v, from-scratch %v", label, res.Period, got)
	}
	seedP, err := core.PeriodE(in, seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period > seedP*(1+1e-12) {
		t.Fatalf("%s: refined period %v worse than seed %v", label, res.Period, seedP)
	}
	if math.Abs(res.Start-seedP) > 1e-9*seedP {
		t.Fatalf("%s: Start = %v, seed evaluates to %v", label, res.Start, seedP)
	}
}

// TestHillClimbNeverWorsens runs both descent flavors from every
// heuristic seed on the instance battery.
func TestHillClimbNeverWorsens(t *testing.T) {
	for k, in := range reproInstances(t) {
		for _, name := range []string{"H1", "H2", "H4w", "H4f"} {
			h, err := heuristics.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			seed, err := h.Fn(in, gen.RNG(int64(k)), heuristics.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, first := range []bool{false, true} {
				opt := DefaultOptions()
				opt.FirstImprovement = first
				res, err := HillClimb(in, seed, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkRefined(t, in, seed, res, fmt.Sprintf("inst%d/%s/first=%v", k, name, first))
			}
		}
	}
}

// TestHillClimbImprovesBadSeeds pins that the engine actually moves: from
// the random H1 baseline, descent must strictly improve the period on a
// large majority of draws (H1 is far from local optimality).
func TestHillClimbImprovesBadSeeds(t *testing.T) {
	improved := 0
	const draws = 10
	in, err := gen.Chain(gen.Default(30, 4, 10), gen.RNG(77))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < draws; seed++ {
		mp, err := heuristics.H1(in, gen.RNG(seed), heuristics.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := HillClimb(in, mp, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Period < res.Start {
			improved++
		}
	}
	if improved < draws*8/10 {
		t.Fatalf("hill climbing improved only %d of %d random seeds", improved, draws)
	}
}

// TestHillClimbDeterministic: identical inputs, identical outputs —
// descent uses no randomness.
func TestHillClimbDeterministic(t *testing.T) {
	in, err := gen.InTree(gen.Default(24, 4, 8), 3, gen.RNG(9))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := HillClimb(in, seed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := HillClimb(in, seed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Period != b.Period || a.Probes != b.Probes || a.Mapping.String() != b.Mapping.String() {
		t.Fatalf("two identical runs diverged: %v/%v probes %d/%d", a.Period, b.Period, a.Probes, b.Probes)
	}
}

// TestAnnealContract: never worse than the seed, deterministic for a
// fixed RNG stream, different streams explore differently.
func TestAnnealContract(t *testing.T) {
	for k, in := range reproInstances(t) {
		seed, err := heuristics.H4w(in, nil, heuristics.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Anneal(in, seed, gen.RNG(int64(100+k)), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		checkRefined(t, in, seed, res, fmt.Sprintf("anneal inst%d", k))

		again, err := Anneal(in, seed, gen.RNG(int64(100+k)), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if again.Period != res.Period || again.Mapping.String() != res.Mapping.String() {
			t.Fatalf("inst%d: same RNG stream, different outcome: %v vs %v", k, res.Period, again.Period)
		}
	}
}

// TestAnnealEscapesLocalOptimum builds a platform where greedy descent
// from H1 gets stuck and checks annealing's uphill acceptances at least
// match the hill climber across a seed batch (it should usually win, but
// float ties make strict dominance flaky).
func TestAnnealEscapesLocalOptimum(t *testing.T) {
	in, err := gen.Chain(gen.Default(20, 3, 6), gen.RNG(123))
	if err != nil {
		t.Fatal(err)
	}
	var hcTotal, saTotal float64
	for s := int64(0); s < 6; s++ {
		mp, err := heuristics.H1(in, gen.RNG(s), heuristics.Options{})
		if err != nil {
			t.Fatal(err)
		}
		hc, err := HillClimb(in, mp, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Iters = 4000
		sa, err := Anneal(in, mp, gen.RNG(1000+s), opt)
		if err != nil {
			t.Fatal(err)
		}
		hcTotal += hc.Period
		saTotal += sa.Period
	}
	if saTotal > hcTotal*1.02 {
		t.Fatalf("annealing (%v total) clearly behind hill climbing (%v total)", saTotal, hcTotal)
	}
}

// TestMoveBookkeeping drives each move kind by hand on a tiny instance
// and checks the rule bookkeeping survives kept and rejected probes.
func TestMoveBookkeeping(t *testing.T) {
	in, err := gen.Chain(gen.Default(10, 3, 5), gen.RNG(55))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	e, err := newEngine(in, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		mp := e.ev.Mapping()
		for u := 0; u < in.M(); u++ {
			tasks := mp.TasksOn(platform.MachineID(u))
			if len(tasks) != e.nOn[u] {
				t.Fatalf("%s: nOn[M%d] = %d, mapping has %d", step, u+1, e.nOn[u], len(tasks))
			}
			if len(tasks) == 0 {
				if e.spec[u] != noType {
					t.Fatalf("%s: empty M%d specialized to %d", step, u+1, e.spec[u])
				}
			} else if e.spec[u] != in.App.Type(tasks[0]) {
				t.Fatalf("%s: spec[M%d] = %d, tasks have type %d", step, u+1, e.spec[u], in.App.Type(tasks[0]))
			}
		}
	}
	check("initial")
	cur := e.ev.Period()
	for i := 0; i < in.N(); i++ {
		id := app.TaskID(i)
		for v := 0; v < in.M(); v++ {
			mv := platform.MachineID(v)
			if e.admissible(id, mv) {
				cur, _ = e.probe(move{kind: relocateMove, i: id, v: mv}, cur)
				check(fmt.Sprintf("relocate T%d->M%d", i+1, v+1))
			}
		}
	}
	for i := 0; i < in.N(); i++ {
		for j := i + 1; j < in.N(); j++ {
			if e.swapAdmissible(app.TaskID(i), app.TaskID(j)) {
				cur, _ = e.probe(move{kind: swapMove, i: app.TaskID(i), j: app.TaskID(j)}, cur)
				check(fmt.Sprintf("swap T%d/T%d", i+1, j+1))
			}
		}
	}
	for u := 0; u < in.M(); u++ {
		for v := 0; v < in.M(); v++ {
			if e.groupAdmissible(platform.MachineID(u), platform.MachineID(v)) {
				cur, _ = e.probe(move{kind: groupMove, u: platform.MachineID(u), v: platform.MachineID(v)}, cur)
				check(fmt.Sprintf("group M%d->M%d", u+1, v+1))
			}
		}
	}
}

// TestOneToOneRuleMoves: under the one-to-one rule the engine must keep
// at most one task per machine through a whole descent.
func TestOneToOneRuleMoves(t *testing.T) {
	pr := gen.Default(6, 2, 9)
	in, err := gen.Chain(pr, gen.RNG(31))
	if err != nil {
		t.Fatal(err)
	}
	seed := core.NewMapping(in.N())
	for i := 0; i < in.N(); i++ {
		seed.Assign(app.TaskID(i), platform.MachineID(i))
	}
	opt := DefaultOptions()
	opt.Rule = core.OneToOne
	res, err := HillClimb(in, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.CheckRule(in.App, core.OneToOne); err != nil {
		t.Fatalf("descent broke the one-to-one rule: %v", err)
	}
	seedP, _ := core.PeriodE(in, seed)
	if res.Period > seedP {
		t.Fatalf("one-to-one descent worsened the seed: %v > %v", res.Period, seedP)
	}
}

// TestSearchErrors covers the validation paths: nil/incomplete seeds,
// rule-violating seeds, missing RNG, unknown polish strategy.
func TestSearchErrors(t *testing.T) {
	in, err := gen.Chain(gen.Default(6, 2, 3), gen.RNG(13))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	if _, err := HillClimb(in, nil, opt); err == nil {
		t.Fatal("nil seed accepted")
	}
	if _, err := HillClimb(in, core.NewMapping(in.N()), opt); err == nil {
		t.Fatal("incomplete seed accepted")
	}
	mixed := core.NewMapping(in.N())
	for i := 0; i < in.N(); i++ {
		mixed.Assign(app.TaskID(i), 0) // all types on one machine
	}
	if err := mixed.CheckRule(in.App, core.Specialized); err != nil {
		if _, err := HillClimb(in, mixed, opt); err == nil {
			t.Fatal("rule-violating seed accepted")
		}
	}
	good, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Anneal(in, good, nil, opt); err == nil {
		t.Fatal("nil RNG accepted")
	}
	if _, err := Polish(in, good, "tabu", core.Specialized, gen.RNG(1), 100); err == nil {
		t.Fatal("unknown polish strategy accepted")
	}
}

// TestPolishBudgetRespected: the probe budget must bound the work of the
// "ls" polish pass.
func TestPolishBudgetRespected(t *testing.T) {
	in, err := gen.Chain(gen.Default(40, 5, 12), gen.RNG(17))
	if err != nil {
		t.Fatal(err)
	}
	mp, err := heuristics.H1(in, gen.RNG(1), heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Polish(in, mp, "ls", core.Specialized, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes > 50 {
		t.Fatalf("budget 50, priced %d moves", res.Probes)
	}
	seedP, _ := core.PeriodE(in, mp)
	if res.Period > seedP {
		t.Fatalf("budgeted polish worsened the seed: %v > %v", res.Period, seedP)
	}
}
