package exact

import (
	"errors"
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

func TestSpecializedMatchesNaiveEnumeration(t *testing.T) {
	// Independent ground truth: enumerate every m^n assignment, filter by
	// the rule, take the best period.
	for seed := int64(0); seed < 8; seed++ {
		in, err := gen.Chain(gen.Default(5, 2, 3), gen.RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := naiveBest(in, core.Specialized)
		res, err := Solve(in, Options{Rule: core.Specialized})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Proven {
			t.Fatal("tiny search not proven")
		}
		if math.Abs(res.Period-want) > 1e-9*want {
			t.Fatalf("seed %d: exact %v != naive %v", seed, res.Period, want)
		}
		if err := res.Mapping.CheckRule(in.App, core.Specialized); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOneToOneMatchesNaiveEnumeration(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in, err := gen.Chain(gen.Default(4, 2, 5), gen.RNG(100+seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(in, Options{Rule: core.OneToOne})
		if err != nil {
			t.Fatal(err)
		}
		want := naiveBest(in, core.OneToOne)
		if math.Abs(res.Period-want) > 1e-9*res.Period {
			t.Fatalf("seed %d: %v != %v", seed, res.Period, want)
		}
	}
}

func TestGeneralRuleAtLeastAsGood(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in, err := gen.Chain(gen.Default(5, 2, 3), gen.RNG(200+seed))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Solve(in, Options{Rule: core.Specialized})
		if err != nil {
			t.Fatal(err)
		}
		genl, err := Solve(in, Options{Rule: core.GeneralRule})
		if err != nil {
			t.Fatal(err)
		}
		if genl.Period > spec.Period+1e-9 {
			t.Fatalf("seed %d: general %v worse than specialized %v", seed, genl.Period, spec.Period)
		}
	}
}

func TestOneToOneImpossible(t *testing.T) {
	in, err := gen.Chain(gen.Default(5, 2, 3), gen.RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(in, Options{Rule: core.OneToOne}); err == nil {
		t.Fatal("n > m one-to-one accepted")
	}
}

func TestIncumbentBoundsSearch(t *testing.T) {
	in, err := gen.Chain(gen.Default(6, 2, 3), gen.RNG(4))
	if err != nil {
		t.Fatal(err)
	}
	free, err := Solve(in, Options{Rule: core.Specialized})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(in, Options{Rule: core.Specialized, Incumbent: free.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Period-free.Period) > 1e-9 {
		t.Fatalf("warm %v != cold %v", warm.Period, free.Period)
	}
	if warm.Nodes > free.Nodes {
		t.Fatalf("incumbent increased nodes: %d > %d", warm.Nodes, free.Nodes)
	}
}

func TestNodeBudgetReturnsIncumbent(t *testing.T) {
	in, err := gen.Chain(gen.Default(10, 3, 5), gen.RNG(8))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Solve(in, Options{Rule: core.Specialized})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(in, Options{Rule: core.Specialized, MaxNodes: 5, Incumbent: full.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	if res.Proven {
		t.Fatal("claimed proven under a 50-node budget")
	}
	if res.Mapping == nil {
		t.Fatal("no incumbent returned")
	}
}

// naiveBest enumerates all assignments (no pruning, no shared state with
// the solver under test).
func naiveBest(in *core.Instance, rule core.Rule) float64 {
	n, m := in.N(), in.M()
	assign := make([]platform.MachineID, n)
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			mp := core.FromSlice(assign)
			if err := mp.CheckRule(in.App, rule); err != nil {
				return
			}
			if p := core.Period(in, mp); p < best {
				best = p
			}
			return
		}
		for u := 0; u < m; u++ {
			assign[i] = platform.MachineID(u)
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestInTreeExact(t *testing.T) {
	in, err := gen.InTree(gen.Default(6, 2, 3), 2, gen.RNG(3))
	if err != nil {
		t.Fatal(err)
	}
	want := naiveBest(in, core.Specialized)
	res, err := Solve(in, Options{Rule: core.Specialized})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Period-want) > 1e-9*want {
		t.Fatalf("in-tree exact %v != naive %v", res.Period, want)
	}
	var _ = app.NoTask
}

// TestZeroRuleIsOneToOne pins what the zero Options.Rule means: core's zero
// Rule, OneToOne, not Specialized. With n > m it is infeasible outright;
// with n <= m it solves exactly like an explicit OneToOne.
func TestZeroRuleIsOneToOne(t *testing.T) {
	in, err := gen.Chain(gen.Default(18, 4, 9), gen.RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(in, Options{Workers: 1, MaxNodes: 10_000}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("zero Rule on n=18 > m=9: got %v, want ErrInfeasible (one-to-one)", err)
	}
	small, err := gen.Chain(gen.Default(5, 2, 7), gen.RNG(2))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Solve(small, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	oto, err := Solve(small, Options{Rule: core.OneToOne, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := zero.Mapping.CheckRule(small.App, core.OneToOne); err != nil {
		t.Fatalf("zero Rule returned a mapping that is not one-to-one: %v", err)
	}
	if zero.Period != oto.Period || zero.Mapping.String() != oto.Mapping.String() {
		t.Fatalf("zero Rule %v (%v) differs from OneToOne %v (%v)", zero.Period, zero.Mapping, oto.Period, oto.Mapping)
	}
}
