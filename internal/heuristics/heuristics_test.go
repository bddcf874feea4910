package heuristics

import (
	"math"
	"slices"
	"sort"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

func randomChain(t *testing.T, seed int64, n, p, m int) *core.Instance {
	t.Helper()
	in, err := gen.Chain(gen.Default(n, p, m), gen.RNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestAllHeuristicsProduceValidSpecializedMappings(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := randomChain(t, seed, 20, 3, 6)
		for _, h := range All() {
			mp, err := h.Fn(in, gen.RNG(seed), Options{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, h.Name, err)
			}
			if !mp.Complete() {
				t.Fatalf("seed %d %s: incomplete mapping", seed, h.Name)
			}
			if err := mp.CheckRule(in.App, core.Specialized); err != nil {
				t.Fatalf("seed %d %s: %v", seed, h.Name, err)
			}
			if p := core.Period(in, mp); math.IsInf(p, 1) || p <= 0 {
				t.Fatalf("seed %d %s: period %v", seed, h.Name, p)
			}
		}
	}
}

func TestHeuristicsOnInTrees(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in, err := gen.InTree(gen.Default(15, 3, 6), 3, gen.RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range All() {
			mp, err := h.Fn(in, gen.RNG(seed), Options{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, h.Name, err)
			}
			if err := mp.CheckRule(in.App, core.Specialized); err != nil {
				t.Fatalf("seed %d %s: %v", seed, h.Name, err)
			}
		}
	}
}

func TestFeasibilityGuardTightCase(t *testing.T) {
	// p == m: every type needs exactly one machine; any heuristic that
	// opens a second group for a type dead-ends. 12 tasks, 4 types, 4
	// machines.
	for seed := int64(0); seed < 10; seed++ {
		in := randomChain(t, 100+seed, 12, 4, 4)
		for _, h := range All() {
			mp, err := h.Fn(in, gen.RNG(seed), Options{})
			if err != nil {
				t.Fatalf("seed %d %s failed on p==m: %v", seed, h.Name, err)
			}
			if err := mp.CheckRule(in.App, core.Specialized); err != nil {
				t.Fatalf("seed %d %s: %v", seed, h.Name, err)
			}
		}
	}
}

func TestTooManyTypesRejected(t *testing.T) {
	// p > m: no specialized mapping exists; all heuristics must error.
	a := app.MustChain([]app.TypeID{0, 1, 2})
	p, _ := platform.NewHomogeneous(3, 2, 100)
	f, _ := failure.NewUniform(3, 2, 0.01)
	in, err := core.NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range All() {
		if _, err := h.Fn(in, gen.RNG(1), Options{}); err == nil {
			t.Fatalf("%s accepted p > m", h.Name)
		}
	}
}

func TestH4wPicksFastMachineSingleTask(t *testing.T) {
	// One task, M0 slow/reliable, M1 fast/flaky: H4w must take M1, H4f
	// must take M0.
	a := app.MustChain([]app.TypeID{0})
	p, _ := platform.New([][]float64{{1000, 100}})
	f, _ := failure.New([][]float64{{0.001, 0.2}})
	in, err := core.NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := H4w(in, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mw.Machine(0) != 1 {
		t.Fatalf("H4w chose M%d, want M2", mw.Machine(0)+1)
	}
	mf, err := H4f(in, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mf.Machine(0) != 0 {
		t.Fatalf("H4f chose M%d, want M1", mf.Machine(0)+1)
	}
}

func TestH4AccountsForBoth(t *testing.T) {
	// H4 weighs w·F: M0 w=200 f=0 → 200; M1 w=150 f=0.5 → 300. H4 picks
	// M0, H4w picks M1.
	a := app.MustChain([]app.TypeID{0})
	p, _ := platform.New([][]float64{{200, 150}})
	f, _ := failure.New([][]float64{{0.0, 0.5}})
	in, err := core.NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	m4, _ := H4(in, nil, Options{})
	if m4.Machine(0) != 0 {
		t.Fatalf("H4 chose M%d, want M1", m4.Machine(0)+1)
	}
	m4w, _ := H4w(in, nil, Options{})
	if m4w.Machine(0) != 1 {
		t.Fatalf("H4w chose M%d, want M2", m4w.Machine(0)+1)
	}
}

func TestH1DeterministicGivenSeed(t *testing.T) {
	in := randomChain(t, 9, 15, 3, 6)
	a, err := H1(in, gen.RNG(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := H1(in, gen.RNG(7), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("H1 not reproducible with equal seeds")
	}
}

func TestDeterministicHeuristicsIgnoreRNG(t *testing.T) {
	in := randomChain(t, 10, 15, 3, 6)
	for _, h := range All() {
		if !h.Deterministic {
			continue
		}
		a, err := h.Fn(in, gen.RNG(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := h.Fn(in, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s output depends on the RNG", h.Name)
		}
	}
}

func TestBinarySearchNotWorseThanInfinitePass(t *testing.T) {
	// H2's binary search must return a period no worse than its own
	// first feasible pass, which is what H2 degenerates to at 0
	// iterations.
	for seed := int64(0); seed < 10; seed++ {
		in := randomChain(t, 300+seed, 25, 4, 8)
		coarse, err := H2(in, nil, Options{MaxIters: 1})
		if err != nil {
			t.Fatal(err)
		}
		fine, err := H2(in, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if core.Period(in, fine) > core.Period(in, coarse)+1e-9 {
			t.Fatalf("seed %d: more iterations worsened H2: %v vs %v",
				seed, core.Period(in, fine), core.Period(in, coarse))
		}
	}
}

func TestRegistry(t *testing.T) {
	if _, err := Get("H4w"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
	names := Names()
	if len(names) < 7 { // six paper heuristics + H2r ablation
		t.Fatalf("registry too small: %v", names)
	}
	if got := len(All()); got != 6 {
		t.Fatalf("All() = %d heuristics, want the paper's 6", got)
	}
}

func TestH2rValidAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := randomChain(t, 400+seed, 20, 3, 6)
		a, err := H2r(in, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.CheckRule(in.App, core.Specialized); err != nil {
			t.Fatal(err)
		}
		b, _ := H2r(in, nil, Options{})
		if a.String() != b.String() {
			t.Fatal("H2r not deterministic")
		}
	}
}

func TestH4wSplitValidAndNeverWorse(t *testing.T) {
	// The divisible-task extension refines the H4w mapping and keeps a
	// rebalance only when the period improves, so it can never lose to
	// H4w. It usually wins; count the wins to make sure the machinery
	// actually fires.
	wins := 0
	for seed := int64(0); seed < 10; seed++ {
		in := randomChain(t, 500+seed, 15, 3, 6)
		sp, err := H4wSplit(in, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Validate(in.App, core.Specialized); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		evs, err := core.EvaluateSplit(in, sp)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := H4w(in, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := core.Period(in, mw)
		if evs.Period > base+1e-6 {
			t.Fatalf("seed %d: split period %v worse than integral %v", seed, evs.Period, base)
		}
		if evs.Period < base-1e-6 {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("splitting never improved any instance; refinement loop seems dead")
	}
}

func TestSingleMachineSingleType(t *testing.T) {
	// Degenerate: everything must land on the only machine.
	a := app.MustChain([]app.TypeID{0, 0, 0})
	p, _ := platform.NewHomogeneous(3, 1, 100)
	f, _ := failure.NewUniform(3, 1, 0.1)
	in, err := core.NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range All() {
		mp, err := h.Fn(in, gen.RNG(1), Options{})
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		for i := 0; i < 3; i++ {
			if mp.Machine(app.TaskID(i)) != 0 {
				t.Fatalf("%s: task %d not on the single machine", h.Name, i)
			}
		}
	}
	// Period: x = (1/0.9)^k chain → x2=1.111, x1=1.235, x0=1.372;
	// sum·100 = 371.7…
	mp, _ := H4w(in, nil, Options{})
	want := (1/0.9 + 1/0.81 + 1/0.729) * 100
	if got := core.Period(in, mp); math.Abs(got-want) > 1e-9 {
		t.Fatalf("period = %v, want %v", got, want)
	}
}

// TestRankPrioritiesStableOrder pins rankPriorities to its definition as
// two stable sorts by execution time — tasks per machine, then machines
// per task by (rank, time, index) — on instances whose times are rounded
// so that ties are common.
func TestRankPrioritiesStableOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		base := randomChain(t, seed, 12, 3, 7)
		n, m := base.N(), base.M()
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, m)
			for u := range w[i] {
				w[i][u] = 100 * math.Ceil(base.Platform.Time(app.TaskID(i), platform.MachineID(u))/100)
			}
		}
		pl, err := platform.New(w)
		if err != nil {
			t.Fatal(err)
		}
		in, err := core.NewInstance(base.App, pl, base.Failures)
		if err != nil {
			t.Fatal(err)
		}
		tm := func(i int, u platform.MachineID) float64 { return in.Platform.Time(app.TaskID(i), u) }
		rank := make([][]int, n)
		for i := range rank {
			rank[i] = make([]int, m)
		}
		for u := 0; u < m; u++ {
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return tm(idx[a], platform.MachineID(u)) < tm(idx[b], platform.MachineID(u)) })
			for r, i := range idx {
				rank[i][u] = r + 1
			}
		}
		got := rankPriorities(in)
		ties := 0
		for i := 0; i < n; i++ {
			want := make([]platform.MachineID, m)
			for u := range want {
				want[u] = platform.MachineID(u)
			}
			sort.SliceStable(want, func(a, b int) bool {
				if ra, rb := rank[i][want[a]], rank[i][want[b]]; ra != rb {
					return ra < rb
				}
				return tm(i, want[a]) < tm(i, want[b])
			})
			for r := 1; r < m; r++ {
				if tm(i, want[r]) == tm(i, want[r-1]) {
					ties++
				}
			}
			if !slices.Equal(got[i], want) {
				t.Fatalf("seed %d task %d: priorities %v, stable sorts %v", seed, i, got[i], want)
			}
		}
		if ties == 0 {
			t.Fatalf("seed %d: no tied times; the rounding no longer exercises ties", seed)
		}
	}
}
