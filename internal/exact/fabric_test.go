package exact

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// TestSubtreeMergeMatchesSolve: Frontier + SolveSubtree per prefix,
// reduced by Merge, reproduces Solve bit for bit — with and
// without an injected external bound equal to the optimum (the strongest
// safe injection).
func TestSubtreeMergeMatchesSolve(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		in, err := gen.Chain(gen.Default(11, 3, 5), gen.RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Rule: core.Specialized, WarmStart: true}
		ref, err := Solve(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Proven {
			t.Fatal("reference not proven")
		}

		front, err := Frontier(in, opts, 16)
		if err != nil {
			t.Fatal(err)
		}
		if front.Stopped {
			t.Fatal("frontier enumeration stopped")
		}
		for _, inject := range []bool{false, true} {
			outs := make([]*SubtreeOutcome, len(front.Prefixes))
			for j, prefix := range front.Prefixes {
				o := opts
				if inject {
					// The sharpest valid external bound: the optimum
					// itself, injected the moment the search starts.
					o.BoundInjector = func(fn func(float64)) { fn(ref.Period) }
				}
				out, err := SolveSubtree(in, o, prefix)
				if err != nil {
					t.Fatal(err)
				}
				if out.WarmPeriod != front.WarmPeriod {
					t.Fatalf("subtree warm %v != frontier warm %v", out.WarmPeriod, front.WarmPeriod)
				}
				outs[j] = out
			}
			res, err := Merge(front, outs)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Proven {
				t.Fatalf("inject=%v: merge not proven", inject)
			}
			if res.Period != ref.Period {
				t.Fatalf("inject=%v: merged period %v != %v", inject, res.Period, ref.Period)
			}
			for i := 0; i < in.N(); i++ {
				if res.Mapping.Machine(app.TaskID(i)) != ref.Mapping.Machine(app.TaskID(i)) {
					t.Fatalf("inject=%v seed=%d: merged mapping diverges at task %d", inject, seed, i)
				}
			}
		}
	}
}

// TestResultPeriodIsCorePeriod: the search proves in Pricer sums and
// core.Evaluate sums in the same root-first order, so every period the
// solver reports — the sequential and parallel Result, a budget-stopped
// incumbent, each OnImprove incumbent and each subtree outcome Merge
// reduces — is core.Period of its mapping, bit for bit. finish and Merge
// rely on it to report periods without re-pricing.
func TestResultPeriodIsCorePeriod(t *testing.T) {
	check := func(what string, in *core.Instance, p float64, mp *core.Mapping) {
		t.Helper()
		if want := core.Period(in, mp); math.Float64bits(p) != math.Float64bits(want) {
			t.Fatalf("%s: period %v, core.Period of its mapping %v", what, p, want)
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		pr := gen.Default(10, 3, 4)
		rule := []core.Rule{core.Specialized, core.GeneralRule, core.OneToOne}[seed%3]
		if rule == core.OneToOne {
			pr.M = 11
		}
		if seed%4 == 3 {
			pr.FMin, pr.FMax = 0, 0.10
		}
		var in *core.Instance
		var err error
		if seed%2 == 0 {
			in, err = gen.Chain(pr, gen.RNG(700+seed))
		} else {
			in, err = gen.InTree(pr, 2, gen.RNG(700+seed))
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Rule: rule},
			{Rule: rule, WarmStart: true, Workers: 2},
			{Rule: rule, MaxNodes: 300},
			{Rule: rule, MaxNodes: 300, Workers: 2},
		} {
			what := fmt.Sprintf("seed %d %v workers %d cap %d", seed, rule, opts.Workers, opts.MaxNodes)
			opts.OnImprove = func(p float64, mp *core.Mapping) {
				check(what+" OnImprove", in, p, mp)
			}
			res, err := Solve(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			check(what, in, res.Period, res.Mapping)
		}
		opts := Options{Rule: rule, WarmStart: true}
		front, err := Frontier(in, opts, 8)
		if err != nil {
			t.Fatal(err)
		}
		for j, prefix := range front.Prefixes {
			out, err := SolveSubtree(in, opts, prefix)
			if err != nil {
				t.Fatal(err)
			}
			if out.Found {
				mp := core.NewMapping(in.N())
				for i, u := range out.Assign {
					mp.Assign(app.TaskID(i), platform.MachineID(u))
				}
				check(fmt.Sprintf("seed %d subtree %d", seed, j), in, out.Period, mp)
			}
		}
	}
}

// TestMerge pins the reduction both transports of the root split share:
// the warm start first, then the first strict improvement in frontier
// order; proven only when the enumeration and every subtree were
// exhausted; typed errors when nothing was found. Reported periods are
// the merge's only sort key, and the winner's is reported unchanged (the
// synthetic periods here are not their mappings' prices; a real outcome's
// is, to the bit — TestResultPeriodIsCorePeriod).
func TestMerge(t *testing.T) {
	warm, a, b := []int{0, 0, 0, 0}, []int{1, 1, 1, 1}, []int{2, 2, 2, 2}
	two := [][]platform.MachineID{{0}, {1}}
	found := func(p float64, assign []int) *SubtreeOutcome {
		return &SubtreeOutcome{Found: true, Period: p, Assign: assign, Nodes: 5}
	}
	for _, c := range []struct {
		name   string
		front  FrontierInfo
		outs   []*SubtreeOutcome
		want   []int // nil: an error is expected
		period float64
		proven bool
		nodes  int64
		err    error
	}{
		{"equal periods: earlier in frontier order wins",
			FrontierInfo{Prefixes: two, WarmAssign: warm, WarmPeriod: 10, Nodes: 3},
			[]*SubtreeOutcome{found(5, a), found(5, b)}, a, 5, true, 13, nil},
		{"a later strict improvement wins",
			FrontierInfo{Prefixes: two, WarmAssign: warm, WarmPeriod: 10, Nodes: 3},
			[]*SubtreeOutcome{found(6, a), found(5, b)}, b, 5, true, 13, nil},
		{"a report equal to the warm period keeps the warm start",
			FrontierInfo{Prefixes: two[:1], WarmAssign: warm, WarmPeriod: 10},
			[]*SubtreeOutcome{found(10, a)}, warm, 10, true, 5, nil},
		{"a stopped subtree voids the proof",
			FrontierInfo{Prefixes: two, WarmAssign: warm, WarmPeriod: 10},
			[]*SubtreeOutcome{{Stopped: true, Nodes: 5}, found(5, b)}, b, 5, false, 10, nil},
		{"an unexplored subtree voids the proof",
			FrontierInfo{Prefixes: two, WarmAssign: warm, WarmPeriod: 10},
			[]*SubtreeOutcome{found(5, a), nil}, a, 5, false, 5, nil},
		{"zero outcomes return the warm start",
			FrontierInfo{WarmAssign: warm, WarmPeriod: 10, Nodes: 7},
			nil, warm, 10, true, 7, nil},
		{"zero outcomes and no warm start are infeasible",
			FrontierInfo{Nodes: 7}, nil, nil, 0, false, 0, ErrInfeasible},
		{"a stopped split that found nothing is starved",
			FrontierInfo{Prefixes: two},
			[]*SubtreeOutcome{{Nodes: 5}, {Stopped: true}}, nil, 0, false, 0, ErrBudgetExhausted},
	} {
		res, err := Merge(&c.front, c.outs)
		if c.want == nil {
			if !errors.Is(err, c.err) {
				t.Fatalf("%s: err %v, want %v", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Proven != c.proven || res.Nodes != c.nodes {
			t.Fatalf("%s: proven %v nodes %d, want %v and %d", c.name, res.Proven, res.Nodes, c.proven, c.nodes)
		}
		for i, u := range c.want {
			if got := res.Mapping.Machine(app.TaskID(i)); got != platform.MachineID(u) {
				t.Fatalf("%s: task %d on machine %d, want %d", c.name, i, got, u)
			}
		}
		if res.Period != c.period {
			t.Fatalf("%s: period %v, want the winner's %v", c.name, res.Period, c.period)
		}
	}
}

// TestFrontierExhausted: an instance whose warm start is already optimal
// can enumerate an empty frontier; the info must say so rather than lie
// with prefixes.
func TestFrontierExhausted(t *testing.T) {
	in, err := gen.Chain(gen.Default(2, 1, 1), gen.RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	front, err := Frontier(in, Options{Rule: core.Specialized, WarmStart: true}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if front.Stopped {
		t.Fatal("stopped on a trivial instance")
	}
	if front.WarmAssign == nil {
		t.Fatal("no warm start on a trivial instance")
	}
	// With one machine the warm start is optimal; whatever the frontier
	// shape, solving every prefix must not beat it.
	for _, prefix := range front.Prefixes {
		out, err := SolveSubtree(in, Options{Rule: core.Specialized, WarmStart: true}, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if out.Found && out.Period < front.WarmPeriod {
			t.Fatalf("subtree beat a provably optimal warm start: %v < %v", out.Period, front.WarmPeriod)
		}
	}
}

// TestSolveSubtreeRejectsBadPrefix: malformed prefixes are typed errors,
// not panics.
func TestSolveSubtreeRejectsBadPrefix(t *testing.T) {
	in, err := gen.Chain(gen.Default(5, 2, 3), gen.RNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveSubtree(in, Options{}, []platform.MachineID{0, 1, 2, 0, 1}); err == nil {
		t.Fatal("full-length prefix accepted")
	}
	if _, err := SolveSubtree(in, Options{}, []platform.MachineID{7}); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
}

// TestBoundInjectorSequential: injecting the known optimum into a plain
// sequential Solve must not change the proven result (strict pruning), and
// must not inflate the node count.
func TestBoundInjectorSequential(t *testing.T) {
	in, err := gen.Chain(gen.Default(10, 2, 4), gen.RNG(13))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Solve(in, Options{Rule: core.Specialized})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(in, Options{
		Rule:          core.Specialized,
		BoundInjector: func(fn func(float64)) { fn(ref.Period) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || res.Period != ref.Period {
		t.Fatalf("injected solve diverged: period %v (proven %v) vs %v", res.Period, res.Proven, ref.Period)
	}
	for i := 0; i < in.N(); i++ {
		if res.Mapping.Machine(app.TaskID(i)) != ref.Mapping.Machine(app.TaskID(i)) {
			t.Fatalf("injected solve changed the mapping at task %d", i)
		}
	}
	if res.Nodes > ref.Nodes {
		t.Fatalf("injection inflated nodes: %d > %d", res.Nodes, ref.Nodes)
	}
}
