package milp

import (
	"math"
	"strings"
	"testing"
	"time"

	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/lp"
)

func randomInstance(t *testing.T, seed int64, n, p, m int) *core.Instance {
	t.Helper()
	in, err := gen.Chain(gen.Default(n, p, m), gen.RNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveTinyMatchesExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := randomInstance(t, 100+seed, 5, 2, 3)
		ex, err := exact.Solve(in, exact.Options{Rule: core.Specialized})
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Proven {
			t.Fatal("exact solver did not prove optimality on a tiny instance")
		}
		res, err := Solve(in, Options{Rule: core.Specialized})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proven {
			t.Fatalf("seed %d: MIP did not prove optimality", seed)
		}
		if math.Abs(res.Period-ex.Period) > 1e-6*ex.Period {
			t.Fatalf("seed %d: MIP period %v != exact %v\nMIP mapping: %v\nexact mapping: %v",
				seed, res.Period, ex.Period, res.Mapping, ex.Mapping)
		}
		if err := res.Mapping.CheckRule(in.App, core.Specialized); err != nil {
			t.Fatalf("seed %d: MIP mapping violates rule: %v", seed, err)
		}
	}
}

func TestSolveWithWarmStart(t *testing.T) {
	in := randomInstance(t, 7, 6, 2, 3)
	warm, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(in, Options{Rule: core.Specialized, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven {
		t.Fatal("warm-started MIP did not prove optimality")
	}
	if res.Period > core.Period(in, warm)+1e-9 {
		t.Fatalf("MIP period %v worse than its warm start %v", res.Period, core.Period(in, warm))
	}
}

func TestSolveOneToOneMatchesBruteForce(t *testing.T) {
	in := randomInstance(t, 21, 4, 2, 5)
	ex, err := exact.Solve(in, exact.Options{Rule: core.OneToOne})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(in, Options{Rule: core.OneToOne})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Period-ex.Period) > 1e-6*ex.Period {
		t.Fatalf("one-to-one MIP %v != exact %v", res.Period, ex.Period)
	}
	if err := res.Mapping.CheckRule(in.App, core.OneToOne); err != nil {
		t.Fatal(err)
	}
}

func TestSolveGeneralRuleAtLeastAsGoodAsSpecialized(t *testing.T) {
	in := randomInstance(t, 33, 5, 2, 3)
	spec, err := Solve(in, Options{Rule: core.Specialized})
	if err != nil {
		t.Fatal(err)
	}
	genr, err := Solve(in, Options{Rule: core.GeneralRule, TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if genr.Period > spec.Period+1e-6 {
		t.Fatalf("general optimum %v worse than specialized optimum %v", genr.Period, spec.Period)
	}
}

func TestHeuristicsNeverBeatExactOptimum(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := randomInstance(t, 200+seed, 6, 3, 4)
		ex, err := exact.Solve(in, exact.Options{Rule: core.Specialized})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range heuristics.All() {
			mp, err := h.Fn(in, gen.RNG(1), heuristics.Options{})
			if err != nil {
				t.Fatalf("%s: %v", h.Name, err)
			}
			if err := mp.CheckRule(in.App, core.Specialized); err != nil {
				t.Fatalf("%s violates specialization: %v", h.Name, err)
			}
			p := core.Period(in, mp)
			if p < ex.Period-1e-6 {
				t.Fatalf("%s period %v beats proven optimum %v — objective bug", h.Name, p, ex.Period)
			}
		}
	}
}

func TestWarmStartVectorIsModelFeasible(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := randomInstance(t, 55+seed, 5, 2, 3)
		md, err := Build(in, core.Specialized)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"H2", "H3", "H4w"} {
			h, err := heuristics.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			mp, err := h.Fn(in, nil, heuristics.Options{})
			if err != nil {
				t.Fatal(err)
			}
			x, err := md.WarmStart(mp)
			if err != nil {
				t.Fatal(err)
			}
			// Pinning every variable to the warm start leaves a single
			// point; the LP is feasible only if every row holds there.
			pinned := md.LP.Clone()
			for v, xv := range x {
				pinned.SetBounds(v, xv, xv)
			}
			sol, err := pinned.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != lp.Optimal {
				t.Fatalf("seed %d %s: pinned warm start is %v, want optimal", seed, name, sol.Status)
			}
			// Moving one variable off the point must break a row.
			pinned.SetBounds(0, x[0]/2, x[0]/2)
			if sol, err = pinned.Solve(); err != nil {
				t.Fatal(err)
			}
			if sol.Status != lp.Infeasible {
				t.Fatalf("seed %d %s: perturbed warm start is %v, want infeasible", seed, name, sol.Status)
			}
			got, err := md.Extract(x)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != mp.String() {
				t.Fatalf("seed %d %s: extract(warmstart) = %v, want %v", seed, name, got, mp)
			}
		}
	}
}

// TestZeroRuleIsOneToOne pins what the zero Options.Rule means: core's zero
// Rule, OneToOne, not Specialized. With n > m no mapping exists; with
// n <= m the solve matches an explicit OneToOne one.
func TestZeroRuleIsOneToOne(t *testing.T) {
	if _, err := Solve(randomInstance(t, 1, 4, 2, 3), Options{MaxNodes: 2000}); err == nil || !strings.Contains(err.Error(), "one-to-one") {
		t.Fatalf("zero Rule on n=4 > m=3: got %v, want the one-to-one n <= m error", err)
	}
	in := randomInstance(t, 2, 3, 2, 5)
	zero, err := Solve(in, Options{MaxNodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	oto, err := Solve(in, Options{Rule: core.OneToOne, MaxNodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Mapping == nil || zero.Mapping.CheckRule(in.App, core.OneToOne) != nil {
		t.Fatalf("zero Rule mapping %v is not one-to-one", zero.Mapping)
	}
	if zero.Period != oto.Period || zero.Mapping.String() != oto.Mapping.String() {
		t.Fatalf("zero Rule %v (%v) differs from OneToOne %v (%v)", zero.Period, zero.Mapping, oto.Period, oto.Mapping)
	}
}
