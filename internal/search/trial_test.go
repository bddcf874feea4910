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

// ledgerPeriod is the apply/read/revert probe the search ran before it
// decided probes on their read-only trial price, kept as the oracle: apply
// the move through the engine's incremental evaluator, read its exact
// period off the compensated ledger, revert.
func ledgerPeriod(e *engine, mv move) float64 {
	from := e.ev.Machine(mv.i)
	group := append([]app.TaskID(nil), e.tasks[mv.u]...)
	e.apply(mv)
	p := e.ev.Period()
	switch mv.kind {
	case swapMove:
		e.apply(mv) // a swap is its own inverse
	case groupMove:
		for _, t := range group {
			e.relocate(t, mv.u)
		}
	default:
		e.relocate(mv.i, from)
	}
	return p
}

// checkTrialWalk draws steps random admissible moves on e — relocates,
// swaps (half of them between a task and one it feeds, transitively) and
// group moves — and requires their trial price to agree with the ledger
// oracle within improveEps(cur)/4, a quarter of the acceptance tolerance
// and half the screens' margin. Half the moves are kept so the walk
// visits many states. It returns the largest gap relative to the period
// and the number of moves checked.
func checkTrialWalk(t *testing.T, label string, e *engine, rng *rand.Rand, steps int) (worst float64, checked int) {
	t.Helper()
	n, m := e.in.N(), e.in.M()
	for s := 0; s < steps; s++ {
		var mv move
		switch rng.Intn(3) {
		case 0:
			mv = move{kind: relocateMove, i: app.TaskID(rng.Intn(n)), v: platform.MachineID(rng.Intn(m))}
			if !e.admissible(mv.i, mv.v) {
				continue
			}
		case 1:
			mv = move{kind: swapMove, i: app.TaskID(rng.Intn(n)), j: app.TaskID(rng.Intn(n))}
			if rng.Intn(2) == 0 {
				// j downstream of i: i feeds j, so one prefix holds the other.
				mv.j = mv.i
				for hops := 1 + rng.Intn(4); hops > 0 && e.in.App.Successor(mv.j) != app.NoTask; hops-- {
					mv.j = e.in.App.Successor(mv.j)
				}
			}
			if !e.swapAdmissible(mv.i, mv.j) {
				continue
			}
		default:
			mv = move{kind: groupMove, u: platform.MachineID(rng.Intn(m)), v: platform.MachineID(rng.Intn(m))}
			if !e.groupAdmissible(mv.u, mv.v) {
				continue
			}
		}
		cur := e.ev.Period()
		trial := e.price(mv)
		if e.ev.Period() != cur {
			t.Fatalf("%s step %d: TrialMove changed the period: %v -> %v", label, s, cur, e.ev.Period())
		}
		want := ledgerPeriod(e, mv)
		gap := math.Abs(trial - want)
		if gap > improveEps(cur)/4 {
			t.Fatalf("%s step %d (%+v): trial %v, ledger %v (gap %g > %g)",
				label, s, mv, trial, want, gap, improveEps(cur)/4)
		}
		if r := gap / math.Max(1, want); r > worst {
			worst = r
		}
		checked++
		if rng.Intn(2) == 0 {
			e.apply(mv)
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
