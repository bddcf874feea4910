package exact

import (
	"math"
	"testing"

	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
)

// TestOrderPreservesOptimum: the best-first child order and the greedy
// restart dive are search-order devices, not heuristics — on a mixed
// corpus the proven period must be bit-identical with ordering on and off.
// (The mapping may legitimately differ: with several optimal mappings the
// two orders can reach a different first optimal leaf.)
func TestOrderPreservesOptimum(t *testing.T) {
	for ci, c := range differentialCorpus(t) {
		on, err := Solve(c.in, Options{Rule: c.rule, MaxNodes: 4_000_000})
		if err != nil {
			t.Fatalf("%s[%d]: %v", c.name, ci, err)
		}
		off, err := Solve(c.in, Options{Rule: c.rule, MaxNodes: 4_000_000, DisableOrder: true})
		if err != nil {
			t.Fatalf("%s[%d]: %v", c.name, ci, err)
		}
		if !on.Proven || !off.Proven {
			t.Fatalf("%s[%d]: budget interfered (proven %v/%v)", c.name, ci, on.Proven, off.Proven)
		}
		if math.Float64bits(on.Period) != math.Float64bits(off.Period) {
			t.Fatalf("%s[%d]: ordering changed the optimum: %v vs %v", c.name, ci, on.Period, off.Period)
		}
		if err := on.Mapping.CheckRule(c.in.App, c.rule); err != nil {
			t.Fatalf("%s[%d]: ordered search broke the rule: %v", c.name, ci, err)
		}
	}
}

// TestOrderCutsCorpusNodes pins the aggregate payoff on the small
// differential corpus only: there the ordered search must explore clearly
// fewer nodes than the legacy ascending-machine order (observed ~1.5x at
// the time of writing; the gate is a conservative 1.2x). It does not hold
// on harder proofs: on three of the four hard cases in perfbench/corpus
// the ordered search takes 2-4x the nodes of ascending order. The order
// stays for budgeted incumbents (TestOrderImprovesBudgetedIncumbents).
func TestOrderCutsCorpusNodes(t *testing.T) {
	var on, off int64
	for _, c := range differentialCorpus(t) {
		a, err := Solve(c.in, Options{Rule: c.rule, MaxNodes: 4_000_000})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(c.in, Options{Rule: c.rule, MaxNodes: 4_000_000, DisableOrder: true})
		if err != nil {
			t.Fatal(err)
		}
		on += a.Nodes
		off += b.Nodes
	}
	if float64(off) < 1.2*float64(on) {
		t.Fatalf("ordered search explored %d corpus nodes vs %d legacy — less than the 1.2x gate", on, off)
	}
	t.Logf("corpus nodes: ordered %d, legacy %d (%.2fx)", on, off, float64(off)/float64(on))
}

// TestOrderImprovesBudgetedIncumbents pins the reason the best-first order
// stays although it costs nodes on some full proofs: serve and the facade
// run node-budgeted, warm-started solves, and there the ordered search
// reaches clearly better incumbents. On these chain draws the unordered
// search's incumbents are worse on every draw (mean period over
// LowerBoundPeriod ~2.7 ordered vs ~3.5 unordered at 10k nodes); the gate
// asks for a conservative 10% on the summed periods.
func TestOrderImprovesBudgetedIncumbents(t *testing.T) {
	pr := gen.Default(18, 4, 9)
	pr.FMax = 0.1
	var on, off float64
	for seed := int64(1); seed <= 10; seed++ {
		in, err := gen.Chain(pr, gen.RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		base := Options{Rule: core.Specialized, WarmStart: true, Workers: 1, MaxNodes: 10_000}
		a, err := Solve(in, base)
		if err != nil {
			t.Fatal(err)
		}
		base.DisableOrder = true
		b, err := Solve(in, base)
		if err != nil {
			t.Fatal(err)
		}
		on += a.Period
		off += b.Period
	}
	if on > 0.9*off {
		t.Fatalf("ordered incumbents sum to %v vs %v unordered — above the 0.9x gate", on, off)
	}
	t.Logf("summed budgeted periods: ordered %v, unordered %v (%.2fx)", on, off, on/off)
}

// TestGreedyDiveSeedsIncumbent: a budget-starved cold search must already
// return the greedy dive's near-optimal mapping — never worse than the H4
// greedy it mirrors — where the legacy order's first incumbent is whatever
// leaf ascending-machine DFS stumbles into first.
func TestGreedyDiveSeedsIncumbent(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		var in *core.Instance
		var err error
		if seed%2 == 0 {
			in, err = gen.Chain(gen.Default(14, 3, 7), gen.RNG(600+seed))
		} else {
			in, err = gen.InTree(gen.Default(14, 3, 7), 2, gen.RNG(600+seed))
		}
		if err != nil {
			t.Fatal(err)
		}
		starved, err := Solve(in, Options{Rule: core.Specialized, MaxNodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if starved.Proven {
			t.Fatalf("seed %d: proven under a 2-node budget", seed)
		}
		h4, err := heuristics.H4(in, nil, heuristics.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h4P, err := core.PeriodE(in, h4)
		if err != nil {
			t.Fatal(err)
		}
		if starved.Period > h4P*(1+1e-9) {
			t.Fatalf("seed %d: starved incumbent %v worse than the H4 greedy %v — the dive is not seeding",
				seed, starved.Period, h4P)
		}
		if err := starved.Mapping.CheckRule(in.App, core.Specialized); err != nil {
			t.Fatalf("seed %d: dive incumbent breaks the rule: %v", seed, err)
		}
	}
}

// TestWarmStartOption: Options.WarmStart must bound the search with the
// H4w mapping — a starved search returns something at least that good, a
// full search still proves the same optimum, and the option composes with
// an explicit Incumbent (the better seed wins).
func TestWarmStartOption(t *testing.T) {
	in, err := gen.Chain(gen.Default(12, 3, 6), gen.RNG(77))
	if err != nil {
		t.Fatal(err)
	}
	h4w, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h4wP, err := core.PeriodE(in, h4w)
	if err != nil {
		t.Fatal(err)
	}
	starved, err := Solve(in, Options{Rule: core.Specialized, WarmStart: true, MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if starved.Period > h4wP*(1+1e-9) {
		t.Fatalf("warm-started starved search returned %v, H4w seed is %v", starved.Period, h4wP)
	}
	cold, err := Solve(in, Options{Rule: core.Specialized})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(in, Options{Rule: core.Specialized, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Proven || math.Float64bits(warm.Period) != math.Float64bits(cold.Period) {
		t.Fatalf("warm start changed the proven optimum: %v vs %v", warm.Period, cold.Period)
	}
	if warm.Nodes > cold.Nodes {
		t.Fatalf("warm start increased nodes: %d > %d", warm.Nodes, cold.Nodes)
	}
	// Composition: a deliberately optimal explicit incumbent plus
	// WarmStart must return exactly the incumbent, proven.
	both, err := Solve(in, Options{Rule: core.Specialized, WarmStart: true, Incumbent: cold.Mapping})
	if err != nil {
		t.Fatal(err)
	}
	if !both.Proven || math.Float64bits(both.Period) != math.Float64bits(cold.Period) {
		t.Fatalf("incumbent+warm composition lost the optimum: %v vs %v", both.Period, cold.Period)
	}
	if both.Mapping.String() != cold.Mapping.String() {
		t.Fatal("optimal explicit incumbent was not returned verbatim")
	}

	// The one-to-one rule rejects the (multi-task-per-machine) H4w seed:
	// WarmStart must silently skip it, not break the search.
	small, err := gen.Chain(gen.Default(4, 2, 5), gen.RNG(78))
	if err != nil {
		t.Fatal(err)
	}
	oto, err := Solve(small, Options{Rule: core.OneToOne, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if !oto.Proven {
		t.Fatal("one-to-one warm-started search unproven")
	}
}

// TestOrderedParallelFirstIncumbent: the dive seed must survive the root
// split — a starved parallel search still returns a rule-valid incumbent
// no worse than the dive for any worker count.
func TestOrderedParallelFirstIncumbent(t *testing.T) {
	in, err := gen.Chain(gen.Default(14, 3, 7), gen.RNG(612))
	if err != nil {
		t.Fatal(err)
	}
	h4, err := heuristics.H4(in, nil, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h4P, err := core.PeriodE(in, h4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := Solve(in, Options{Rule: core.Specialized, MaxNodes: 64, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Period > h4P*(1+1e-9) {
			t.Fatalf("workers=%d: starved parallel incumbent %v worse than the dive's %v",
				workers, res.Period, h4P)
		}
		if err := res.Mapping.CheckRule(in.App, core.Specialized); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
