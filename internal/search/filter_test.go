package search

import (
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/platform"
)

// TestFilterResultInvariant is the gate on the critical-machine candidate
// filter: it may only skip provably non-improving probes, so hill climbing
// with the filter on must return the identical mapping and period as with
// it off — for both descent flavors, from good and bad seeds, across the
// instance battery — while pricing no more (and in practice far fewer)
// candidate moves.
func TestFilterResultInvariant(t *testing.T) {
	var probesOn, probesOff int
	for k, in := range reproInstances(t) {
		for _, seedName := range []string{"H1", "H4w"} {
			h, err := heuristics.Get(seedName)
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
				a, err := HillClimb(in, seed, opt)
				if err != nil {
					t.Fatal(err)
				}
				b, err := hillClimb(in, seed, opt, func(e *engine) { e.filter = false })
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(a.Period) != math.Float64bits(b.Period) ||
					a.Mapping.String() != b.Mapping.String() {
					t.Fatalf("inst%d/%s/first=%v: filter changed the descent:\n  on  %v (%v)\n  off %v (%v)",
						k, seedName, first, a.Period, a.Mapping, b.Period, b.Mapping)
				}
				if a.Accepted != b.Accepted {
					t.Fatalf("inst%d/%s/first=%v: filter changed the accepted-move count: %d vs %d",
						k, seedName, first, a.Accepted, b.Accepted)
				}
				if a.Probes > b.Probes {
					t.Fatalf("inst%d/%s/first=%v: filter probed more (%d) than the full scan (%d)",
						k, seedName, first, a.Probes, b.Probes)
				}
				probesOn += a.Probes
				probesOff += b.Probes
			}
		}
	}
	if probesOn >= probesOff {
		t.Fatalf("filter saved nothing across the battery: %d vs %d probes", probesOn, probesOff)
	}
	t.Logf("battery probes: filtered %d, full %d (%.1f%% skipped)",
		probesOn, probesOff, 100*(1-float64(probesOn)/float64(probesOff)))
}

// TestTaskListsMaintained white-boxes the per-machine task lists through a
// full descent plus annealing proposals: after every strategy run the
// lists must partition the tasks exactly as the evaluator's mapping does,
// with consistent back-pointers.
func TestTaskListsMaintained(t *testing.T) {
	in, err := gen.InTree(gen.Default(24, 4, 8), 3, gen.RNG(321))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := heuristics.H1(in, gen.RNG(7), heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(in, seed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkLists := func(step string) {
		t.Helper()
		total := 0
		for u := 0; u < in.M(); u++ {
			mu := platform.MachineID(u)
			total += len(e.tasks[mu])
			if len(e.tasks[mu]) != e.nOn[u] {
				t.Fatalf("%s: tasks[M%d] has %d entries, nOn says %d", step, u+1, len(e.tasks[mu]), e.nOn[u])
			}
			for k, i := range e.tasks[mu] {
				if e.ev.Machine(i) != mu {
					t.Fatalf("%s: task T%d listed on M%d but mapped to M%d", step, int(i)+1, u+1, int(e.ev.Machine(i))+1)
				}
				if e.pos[i] != k {
					t.Fatalf("%s: pos[T%d] = %d, list index is %d", step, int(i)+1, e.pos[i], k)
				}
			}
		}
		if total != in.N() {
			t.Fatalf("%s: lists cover %d of %d tasks", step, total, in.N())
		}
	}
	checkLists("initial")
	cur := e.ev.Period()
	res := &Result{}
	for rounds := 0; rounds < 4; rounds++ {
		var improved bool
		cur, improved = e.descendSteepest(cur, res)
		checkLists("steepest round")
		if !improved {
			break
		}
	}
	rng := gen.RNG(99)
	for it := 0; it < 300; it++ {
		kind := []moveKind{relocateMove, swapMove, groupMove}[rng.Intn(3)]
		if mv, _, ok := e.proposeRandom(rng, kind, in.N(), in.M()); ok && rng.Intn(2) == 0 {
			e.apply(mv)
			checkLists("proposal")
		}
	}
}

// TestSwapEngineMatchesRelocatePair: the engine swap, with its O(1)
// exchange of the task-list slots, must land on the same state as two
// plain relocates, to the evaluator's differential tolerance.
func TestSwapEngineMatchesRelocatePair(t *testing.T) {
	in, err := gen.Chain(gen.Default(20, 4, 8), gen.RNG(55))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := newEngine(in, seed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := newEngine(in, seed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := gen.RNG(77)
	for step := 0; step < 200; step++ {
		i := app.TaskID(rng.Intn(in.N()))
		j := app.TaskID(rng.Intn(in.N()))
		if !a.swapAdmissible(i, j) {
			continue
		}
		a.apply(move{kind: swapMove, i: i, j: j})
		u, v := b.ev.Machine(i), b.ev.Machine(j)
		b.relocate(i, v)
		b.relocate(j, u)
		for w := 0; w < in.M(); w++ {
			mw := platform.MachineID(w)
			pa, pb := a.ev.MachinePeriod(mw), b.ev.MachinePeriod(mw)
			if math.Abs(pa-pb) > 1e-12*math.Max(1, math.Max(pa, pb)) {
				t.Fatalf("step %d: engine swap and relocate pair diverged on M%d: %v vs %v", step, w+1, pa, pb)
			}
		}
		if a.spec[u] != b.spec[u] || a.spec[v] != b.spec[v] || a.nOn[u] != b.nOn[u] || a.nOn[v] != b.nOn[v] {
			t.Fatalf("step %d: bookkeeping diverged after swap(T%d, T%d)", step, int(i)+1, int(j)+1)
		}
	}
}

// TestCalibrateT0 pins the acceptance-ratio targeting: the auto-tuned T0
// must scale with the instance's period scale (a platform 1000x slower
// gets a ~1000x hotter start) and accept an average uphill move with
// probability ~chi0.
func TestCalibrateT0(t *testing.T) {
	in, err := gen.Chain(gen.Default(20, 3, 6), gen.RNG(2024))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := calibratedT0(t, in, seed)
	if t0 <= 0 {
		t.Fatalf("auto T0 = %v", t0)
	}
	// Same instance, every execution time scaled 1000x: the tuned T0 must
	// scale with it (the legacy fixed-ms default would not).
	n, m := in.N(), in.M()
	w := make([][]float64, n)
	f := make([][]float64, n)
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		w[i] = make([]float64, m)
		f[i] = make([]float64, m)
		for u := 0; u < m; u++ {
			mu := platform.MachineID(u)
			w[i][u] = 1000 * in.Platform.Time(id, mu)
			f[i][u] = in.Failures.Rate(id, mu)
		}
	}
	pl, err := platform.New(w)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := in.Failures, error(nil)
	_ = fm
	scaled, err := core.NewInstance(in.App, pl, in.Failures)
	if err != nil {
		t.Fatal(err)
	}
	t0Scaled := calibratedT0(t, scaled, seed)
	if ratio := t0Scaled / t0; ratio < 900 || ratio > 1100 {
		t.Fatalf("T0 did not track the period scale: %v -> %v (ratio %.1f, want ~1000)", t0, t0Scaled, ratio)
	}
	// Anneal with the tuned default must keep its contracts on both
	// scales (never worse than seed, deterministic per stream).
	for _, inst := range []*core.Instance{in, scaled} {
		a, err := Anneal(inst, seed, gen.RNG(5), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Anneal(inst, seed, gen.RNG(5), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if a.Period != b.Period || a.Mapping.String() != b.Mapping.String() {
			t.Fatal("auto-tuned annealing lost stream determinism")
		}
		seedP, err := core.PeriodE(inst, seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.Period > seedP*(1+1e-12) {
			t.Fatalf("auto-tuned annealing worsened the seed: %v > %v", a.Period, seedP)
		}
	}
}

// calibratedT0 runs the calibration the way Anneal does.
func calibratedT0(t *testing.T, in *core.Instance, seed *core.Mapping) float64 {
	t.Helper()
	e, err := newEngine(in, seed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cur := e.ev.Period()
	return calibrateT0(e, gen.RNG(1), in.N(), in.M(), cur)
}
