package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/platform"
)

// trialCase is one (instance, rule, seed mapping) of the trial-pricing
// corpus.
type trialCase struct {
	name string
	in   *core.Instance
	rule core.Rule
	seed *core.Mapping
}

// trialCorpus covers all three rules on random chains and in-trees,
// including the Figure 8 shape (chains, n=10..100, m=10, p=5, f in
// [0, 0.1]) whose polish dominates the heuristic campaigns. Specialized
// cases start from H4w, General ones from a uniform random mapping (mixed
// types on a machine), one-to-one ones from a random injection.
func trialCorpus(t testing.TB) []trialCase {
	t.Helper()
	var out []trialCase
	add := func(name string, in *core.Instance, err error, rule core.Rule, seed func(*core.Instance) *core.Mapping) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, trialCase{name, in, rule, seed(in)})
	}
	h4w := func(in *core.Instance) *core.Mapping {
		mp, err := heuristics.H4w(in, nil, heuristics.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}
	randomMapping := func(seed int64) func(*core.Instance) *core.Mapping {
		return func(in *core.Instance) *core.Mapping {
			rng := gen.RNG(seed)
			mp := core.NewMapping(in.N())
			for i := 0; i < in.N(); i++ {
				mp.Assign(app.TaskID(i), platform.MachineID(rng.Intn(in.M())))
			}
			return mp
		}
	}
	injection := func(seed int64) func(*core.Instance) *core.Mapping {
		return func(in *core.Instance) *core.Mapping {
			perm := gen.RNG(seed).Perm(in.M())
			mp := core.NewMapping(in.N())
			for i := 0; i < in.N(); i++ {
				mp.Assign(app.TaskID(i), platform.MachineID(perm[i]))
			}
			return mp
		}
	}
	for k, in := range reproInstances(t) {
		add(fmt.Sprintf("repro%d/specialized", k), in, nil, core.Specialized, h4w)
	}
	for _, n := range []int{10, 40, 70, 100} {
		pr := gen.Default(n, 5, 10)
		pr.FMin, pr.FMax = 0, 0.1
		in, err := gen.Chain(pr, gen.RNG(int64(800+n)))
		add(fmt.Sprintf("fig8-n%d/specialized", n), in, err, core.Specialized, h4w)
	}
	in, err := gen.InTree(gen.Default(40, 4, 10), 4, gen.RNG(11))
	add("intree40/specialized", in, err, core.Specialized, h4w)
	in, err = gen.Chain(gen.Default(30, 3, 6), gen.RNG(12))
	add("chain30/general", in, err, core.GeneralRule, randomMapping(12))
	in, err = gen.InTree(gen.Default(40, 4, 8), 3, gen.RNG(13))
	add("intree40/general", in, err, core.GeneralRule, randomMapping(13))
	in, err = gen.Chain(gen.Default(8, 3, 12), gen.RNG(14))
	add("chain8/one-to-one", in, err, core.OneToOne, injection(14))
	in, err = gen.InTree(gen.Default(12, 4, 16), 3, gen.RNG(15))
	add("intree12/one-to-one", in, err, core.OneToOne, injection(15))
	return out
}

// ledgerPeriod is the apply/read/revert probe the descents ran before the
// read-only trial pricing, kept as the oracle: apply the move through the
// engine's incremental evaluator, read its exact period, revert.
func ledgerPeriod(e *engine, kind moveKind, i, j app.TaskID, u, v platform.MachineID) float64 {
	switch kind {
	case swapMove:
		e.swap(i, j)
		p := e.ev.Period()
		e.swap(i, j)
		return p
	case groupMove:
		moved := append([]app.TaskID(nil), e.moveGroup(u, v)...)
		p := e.ev.Period()
		for _, t := range moved {
			e.relocate(t, u)
		}
		return p
	default:
		from := e.ev.Machine(i)
		e.relocate(i, v)
		p := e.ev.Period()
		e.relocate(i, from)
		return p
	}
}

// checkTrialWalk draws steps random admissible moves on e — relocates,
// swaps (half of them between a task and one it feeds, transitively) and
// group moves — and requires Evaluator.TrialMove to agree with the
// ledger oracle within improveEps(cur)/4, a quarter of the acceptance
// tolerance and half the trial screen's margin. Half the moves are kept
// so the walk visits many states. It returns the largest gap relative to
// the period and the number of moves checked.
func checkTrialWalk(t *testing.T, label string, e *engine, rng *rand.Rand, steps int) (worst float64, checked int) {
	t.Helper()
	n, m := e.in.N(), e.in.M()
	for s := 0; s < steps; s++ {
		var (
			kind  moveKind
			i, j  app.TaskID
			u, v  platform.MachineID
			moved []app.TaskID
			dest  []platform.MachineID
		)
		switch rng.Intn(3) {
		case 0:
			kind = relocateMove
			i, v = app.TaskID(rng.Intn(n)), platform.MachineID(rng.Intn(m))
			if !e.admissible(i, v) {
				continue
			}
			moved, dest = []app.TaskID{i}, []platform.MachineID{v}
		case 1:
			kind = swapMove
			i, j = app.TaskID(rng.Intn(n)), app.TaskID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				// j downstream of i: i feeds j, so one prefix holds the other.
				j = i
				for hops := 1 + rng.Intn(4); hops > 0 && e.in.App.Successor(j) != app.NoTask; hops-- {
					j = e.in.App.Successor(j)
				}
			}
			if !e.swapAdmissible(i, j) {
				continue
			}
			moved = []app.TaskID{i, j}
			dest = []platform.MachineID{e.ev.Machine(j), e.ev.Machine(i)}
		default:
			kind = groupMove
			u, v = platform.MachineID(rng.Intn(m)), platform.MachineID(rng.Intn(m))
			if !e.groupAdmissible(u, v) {
				continue
			}
			moved = append([]app.TaskID(nil), e.tasks[u]...)
			dest = make([]platform.MachineID, len(moved))
			for k := range dest {
				dest[k] = v
			}
		}
		cur := e.ev.Period()
		trial := e.ev.TrialMove(moved, dest)
		if e.ev.Period() != cur {
			t.Fatalf("%s step %d: TrialMove changed the period: %v -> %v", label, s, cur, e.ev.Period())
		}
		want := ledgerPeriod(e, kind, i, j, u, v)
		gap := math.Abs(trial - want)
		if gap > improveEps(cur)/4 {
			t.Fatalf("%s step %d (kind %d, T%d T%d M%d M%d): trial %v, ledger %v (gap %g > %g)",
				label, s, kind, int(i)+1, int(j)+1, int(u)+1, int(v)+1, trial, want, gap, improveEps(cur)/4)
		}
		if r := gap / math.Max(1, want); r > worst {
			worst = r
		}
		checked++
		if rng.Intn(2) == 0 {
			switch kind {
			case swapMove:
				e.swap(i, j)
			case groupMove:
				e.moveGroup(u, v)
			default:
				e.relocate(i, v)
			}
		}
	}
	return worst, checked
}

// TestTrialMatchesLedger gates the read-only trial kernel against the
// apply/read/revert oracle over the whole corpus and every move kind.
func TestTrialMatchesLedger(t *testing.T) {
	var worst float64
	moves := 0
	for k, c := range trialCorpus(t) {
		e, err := newEngine(c.in, c.seed, Options{Rule: c.rule})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		g, checked := checkTrialWalk(t, c.name, e, gen.RNG(int64(900+k)), 600)
		worst = math.Max(worst, g)
		moves += checked
	}
	t.Logf("%d moves checked, largest trial-vs-ledger gap %.3g relative", moves, worst)
}

// FuzzTrialMoves runs the trial-vs-ledger walk on fuzzed instance shapes,
// rules and move streams.
func FuzzTrialMoves(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(4), uint8(0), uint8(0))
	f.Add(int64(2), uint8(30), uint8(6), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, shape, ruleRaw uint8) {
		n, m := 2+int(nRaw)%60, 2+int(mRaw)%14
		rule := []core.Rule{core.Specialized, core.GeneralRule, core.OneToOne}[int(ruleRaw)%3]
		if rule == core.OneToOne && n > m {
			n = m
		}
		p := 1 + int(seed&3)
		if p > n {
			p = n
		}
		if p > m {
			p = m
		}
		pr := gen.Default(n, p, m)
		pr.FMin, pr.FMax = 0, 0.1
		rng := gen.RNG(seed)
		var in *core.Instance
		var err error
		if shape%2 == 0 {
			in, err = gen.Chain(pr, rng)
		} else {
			in, err = gen.InTree(pr, 2+int(shape/2)%3, rng)
		}
		if err != nil {
			t.Skip(err)
		}
		var mp *core.Mapping
		switch rule {
		case core.OneToOne:
			perm := rng.Perm(m)
			mp = core.NewMapping(n)
			for i := 0; i < n; i++ {
				mp.Assign(app.TaskID(i), platform.MachineID(perm[i]))
			}
		case core.GeneralRule:
			mp = core.NewMapping(n)
			for i := 0; i < n; i++ {
				mp.Assign(app.TaskID(i), platform.MachineID(rng.Intn(m)))
			}
		default:
			if mp, err = heuristics.H4w(in, nil, heuristics.Options{}); err != nil {
				t.Skip(err)
			}
		}
		e, err := newEngine(in, mp, Options{Rule: rule})
		if err != nil {
			t.Fatal(err)
		}
		checkTrialWalk(t, "fuzz", e, rng, 60)
	})
}

// TestTrialIdenticalToLedgerProbes pins that the trial screen changes
// nothing but speed: HillClimb with it and with the apply/read/revert
// oracle (the trial screen switched off) must return the same mapping,
// probe count and acceptance count, with periods equal up to the ulp
// drift reverted probes leave in the compensated sums. Both descent
// flavors run as production runs them: first-improvement under the
// campaigns' binding 2000-probe polish budget, and steepest with the
// facade's four restarts.
func TestTrialIdenticalToLedgerProbes(t *testing.T) {
	oracle := func(e *engine) { e.trial = false }
	for _, c := range trialCorpus(t) {
		polish := Options{Rule: c.rule, FirstImprovement: true, MaxProbes: 2000}
		ls := Options{Rule: c.rule, Restarts: 4, RestartSeed: gen.StringSeed("microfab/ls-restarts")}
		for _, run := range []struct {
			name string
			opt  Options
		}{{"polish", polish}, {"ls", ls}} {
			label := c.name + "/" + run.name
			a, err := HillClimb(c.in, c.seed, run.opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			b, err := hillClimb(c.in, c.seed, run.opt, oracle)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if a.Mapping.String() != b.Mapping.String() || a.Probes != b.Probes || a.Accepted != b.Accepted {
				t.Fatalf("%s: trial probes diverged from the oracle:\n  trial  %v probes %d accepted %d (%v)\n  oracle %v probes %d accepted %d (%v)",
					label, a.Period, a.Probes, a.Accepted, a.Mapping, b.Period, b.Probes, b.Accepted, b.Mapping)
			}
			if math.Abs(a.Period-b.Period) > 1e-12*math.Max(a.Period, b.Period) {
				t.Fatalf("%s: periods differ beyond ulp drift: %v vs %v", label, a.Period, b.Period)
			}
		}
	}
}
