package core_test

import (
	"math"
	"math/rand"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// loads snapshots the pricer's per-machine loads.
func loads(pr *core.Pricer, m int) []float64 {
	out := make([]float64, m)
	for u := range out {
		out[u] = pr.Load(platform.MachineID(u))
	}
	return out
}

// pricerCorpus draws the instance battery the pricing-only mode is gated
// on: chains and in-trees, narrow and wide platforms, standard and
// high-failure regimes.
func pricerCorpus(t testing.TB) []*core.Instance {
	t.Helper()
	var out []*core.Instance
	add := func(in *core.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	for seed := int64(0); seed < 10; seed++ {
		add(gen.Chain(gen.Default(8, 3, 4), gen.RNG(7000+seed)))
	}
	for seed := int64(0); seed < 10; seed++ {
		add(gen.InTree(gen.Default(9, 3, 4), 2+int(seed%2), gen.RNG(7100+seed)))
	}
	for seed := int64(0); seed < 6; seed++ {
		pr := gen.Default(12, 4, 6)
		pr.FMin, pr.FMax = 0, 0.10
		add(gen.Chain(pr, gen.RNG(7200+seed)))
	}
	for seed := int64(0); seed < 6; seed++ {
		add(gen.InTree(gen.Default(14, 4, 7), 3, gen.RNG(7300+seed)))
	}
	return out
}

// TestPricerDifferential drives random root-first LIFO walks (the exact
// solver's only access pattern) over the corpus and cross-checks the
// pricing-only mode against the full Evaluator after every step: loads
// against the compensated per-machine periods to 1e-12, the running
// maximum against the tournament-tree maximum, x-values and the snapshot
// mapping exactly.
func TestPricerDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for ci, in := range pricerCorpus(t) {
		order := in.App.ReverseTopological()
		pr := core.NewPricer(in)
		ev := core.NewEvaluator(in)
		var stack []platform.MachineID
		for step := 0; step < 400; step++ {
			push := len(stack) == 0 || (len(stack) < len(order) && rng.Intn(3) != 0)
			if push {
				i := order[len(stack)]
				u := platform.MachineID(rng.Intn(in.M()))
				want, ok := pr.Trial(i, u)
				if !ok {
					t.Fatalf("inst%d step %d: Trial unknown on a root-first walk", ci, step)
				}
				if err := pr.Assign(i, u); err != nil {
					t.Fatalf("inst%d step %d: pricer Assign: %v", ci, step, err)
				}
				if got := pr.Load(u); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("inst%d step %d: Assign landed on %v, Trial promised %v", ci, step, got, want)
				}
				if err := ev.Assign(i, u); err != nil {
					t.Fatalf("inst%d step %d: evaluator Assign: %v", ci, step, err)
				}
				stack = append(stack, u)
			} else {
				i := order[len(stack)-1]
				pr.Unassign(i)
				ev.Unassign(i)
				stack = stack[:len(stack)-1]
			}
			comparePricer(t, in, pr, ev, ci, step)
		}
	}
}

// comparePricer asserts the pricing-only mode and the full Evaluator agree
// on the shared state to 1e-12 (machine loads, maximum) and exactly
// (assignments, x-values, completeness).
func comparePricer(t *testing.T, in *core.Instance, pr *core.Pricer, ev *core.Evaluator, ci, step int) {
	t.Helper()
	for i := 0; i < in.N(); i++ {
		id := app.TaskID(i)
		if pr.Machine(id) != ev.Machine(id) {
			t.Fatalf("inst%d step %d: T%d on M%d, evaluator has M%d", ci, step, i+1, int(pr.Machine(id))+1, int(ev.Machine(id))+1)
		}
		if !close12(pr.X(id), ev.X(id)) {
			t.Fatalf("inst%d step %d: x[%d] = %v, evaluator %v", ci, step, i, pr.X(id), ev.X(id))
		}
	}
	worst := 0.0
	for u := 0; u < in.M(); u++ {
		mu := platform.MachineID(u)
		if !close12(pr.Load(mu), ev.MachinePeriod(mu)) {
			t.Fatalf("inst%d step %d: load(M%d) = %v, evaluator %v", ci, step, u+1, pr.Load(mu), ev.MachinePeriod(mu))
		}
		if l := pr.Load(mu); l > worst {
			worst = l
		}
	}
	if math.Float64bits(pr.Max()) != math.Float64bits(worst) {
		t.Fatalf("inst%d step %d: Max() = %v, load scan gives %v", ci, step, pr.Max(), worst)
	}
	if !close12(pr.Max(), ev.Period()) {
		t.Fatalf("inst%d step %d: Max() = %v, evaluator period %v", ci, step, pr.Max(), ev.Period())
	}
	if pr.Complete() != ev.Complete() {
		t.Fatalf("inst%d step %d: Complete() = %v, evaluator %v", ci, step, pr.Complete(), ev.Complete())
	}
	if pr.Complete() && pr.Mapping().String() != ev.Mapping().String() {
		t.Fatalf("inst%d step %d: mapping %v, evaluator %v", ci, step, pr.Mapping(), ev.Mapping())
	}
}

// TestPricerRestoreBitExact pins the restore property the parallel exact
// search depends on: after any descend/backtrack excursion, the loads and
// the maximum are bit-identical to the state before it — a node's pricing
// is a pure function of its partial assignment.
func TestPricerRestoreBitExact(t *testing.T) {
	in, err := gen.InTree(gen.Default(12, 3, 5), 3, gen.RNG(4242))
	if err != nil {
		t.Fatal(err)
	}
	order := in.App.ReverseTopological()
	pr := core.NewPricer(in)
	rng := rand.New(rand.NewSource(17))
	// Park the walk at a random mid-tree node.
	depth := 1 + rng.Intn(len(order)-1)
	for k := 0; k < depth; k++ {
		if err := pr.Assign(order[k], platform.MachineID(rng.Intn(in.M()))); err != nil {
			t.Fatal(err)
		}
	}
	before := loads(pr, in.M())
	beforeMax := pr.Max()
	for trial := 0; trial < 50; trial++ {
		// Random excursion below the node, then full backtrack.
		extra := rng.Intn(len(order) - depth + 1)
		for k := depth; k < depth+extra; k++ {
			if err := pr.Assign(order[k], platform.MachineID(rng.Intn(in.M()))); err != nil {
				t.Fatal(err)
			}
		}
		for k := depth + extra - 1; k >= depth; k-- {
			pr.Unassign(order[k])
		}
		after := loads(pr, in.M())
		for u := range after {
			if math.Float64bits(after[u]) != math.Float64bits(before[u]) {
				t.Fatalf("trial %d: load(M%d) drifted: %x -> %x", trial, u+1,
					math.Float64bits(before[u]), math.Float64bits(after[u]))
			}
		}
		if math.Float64bits(pr.Max()) != math.Float64bits(beforeMax) {
			t.Fatalf("trial %d: max drifted: %v -> %v", trial, beforeMax, pr.Max())
		}
	}
}

// TestPricerDiscipline covers the contract errors: out-of-range ids,
// assigning before the successor (root-first violation), and double
// assignment (no move semantics).
func TestPricerDiscipline(t *testing.T) {
	in, err := gen.Chain(gen.Default(5, 2, 3), gen.RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	pr := core.NewPricer(in)
	order := in.App.ReverseTopological()
	if err := pr.Assign(app.TaskID(in.N()), 0); err == nil {
		t.Fatal("out-of-range task accepted")
	}
	if err := pr.Assign(order[0], platform.MachineID(in.M())); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
	// The chain's source feeds everything: assigning it first violates
	// root-first.
	if err := pr.Assign(order[len(order)-1], 0); err == nil {
		t.Fatal("pre-successor assignment accepted")
	}
	if err := pr.Assign(order[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := pr.Assign(order[0], 1); err == nil {
		t.Fatal("double assignment accepted")
	}
	// Unassign of an unassigned task and out-of-range ids are no-ops.
	pr.Unassign(order[1])
	pr.Unassign(app.TaskID(-1))
	if pr.Machine(order[0]) != 0 || pr.Len() != in.N() {
		t.Fatal("no-op unassigns mutated state")
	}
}

// TestPricerCloneIndependence: mutating a clone never leaks into the
// original, and both keep pricing correctly.
func TestPricerCloneIndependence(t *testing.T) {
	in, err := gen.Chain(gen.Default(8, 3, 4), gen.RNG(2))
	if err != nil {
		t.Fatal(err)
	}
	order := in.App.ReverseTopological()
	pr := core.NewPricer(in)
	for k := 0; k < 4; k++ {
		if err := pr.Assign(order[k], platform.MachineID(k%in.M())); err != nil {
			t.Fatal(err)
		}
	}
	snap := loads(pr, in.M())
	cl := pr.Clone()
	for k := 4; k < len(order); k++ {
		if err := cl.Assign(order[k], platform.MachineID(k%in.M())); err != nil {
			t.Fatal(err)
		}
	}
	if !cl.Complete() || pr.Complete() {
		t.Fatal("clone completion leaked")
	}
	after := loads(pr, in.M())
	for u := range snap {
		if math.Float64bits(snap[u]) != math.Float64bits(after[u]) {
			t.Fatalf("clone mutation leaked into original load(M%d)", u+1)
		}
	}
	// The clone's state must match a fresh replay of the same path.
	replay := core.NewPricer(in)
	for k := 0; k < len(order); k++ {
		if err := replay.Assign(order[k], cl.Machine(order[k])); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < in.M(); u++ {
		mu := platform.MachineID(u)
		if math.Float64bits(replay.Load(mu)) != math.Float64bits(cl.Load(mu)) {
			t.Fatalf("clone load(M%d) != replayed load", u+1)
		}
	}
}

// TestPricerBestAndReset pins the Best tie-break (smallest machine
// attaining the maximum, NoMachine while empty) and Reset.
func TestPricerBestAndReset(t *testing.T) {
	in, err := gen.Chain(gen.Default(6, 2, 3), gen.RNG(3))
	if err != nil {
		t.Fatal(err)
	}
	pr := core.NewPricer(in)
	if p, u := pr.Best(); p != 0 || u != platform.NoMachine {
		t.Fatalf("empty Best() = (%v, %d)", p, u)
	}
	order := in.App.ReverseTopological()
	ev := core.NewEvaluator(in)
	for k, i := range order {
		u := platform.MachineID(k % in.M())
		if err := pr.Assign(i, u); err != nil {
			t.Fatal(err)
		}
		if err := ev.Assign(i, u); err != nil {
			t.Fatal(err)
		}
	}
	p, u := pr.Best()
	ep, eu := ev.Best()
	if !close12(p, ep) || u != eu {
		t.Fatalf("Best() = (%v, M%d), evaluator (%v, M%d)", p, int(u)+1, ep, int(eu)+1)
	}
	pr.Reset()
	if pr.Max() != 0 || pr.Complete() || pr.Machine(order[0]) != platform.NoMachine {
		t.Fatal("Reset left state behind")
	}
	if _, ok := pr.Trial(order[1], 0); ok {
		t.Fatal("Trial knows a demand after Reset")
	}
}
