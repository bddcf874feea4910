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

// screenInstances is the invariance battery for the load-delta screens: the
// shared contract battery plus long chains, where every task sits on the
// critical machine's successor chains and the critical-machine candidate
// filter is vacuous — there the screens are the only thing standing between
// the descent and the full n·m probe sweep.
func screenInstances(t testing.TB) []*core.Instance {
	t.Helper()
	out := reproInstances(t)
	add := func(in *core.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	add(gen.Chain(gen.Default(60, 4, 8), gen.RNG(41)))
	hf := gen.Default(35, 3, 9)
	hf.FMin, hf.FMax = 0, 0.12
	add(gen.Chain(hf, gen.RNG(42)))
	return out
}

// TestScreenResultInvariant is the gate on the batched load-delta screens:
// they may only skip probes whose destination-load lower bound proves the
// descent would reject them, so hill climbing with the screens on must
// return the bit-identical period and mapping as with them off — for both
// descent flavors, with and without the critical-machine filter (the chain
// instances make the filter vacuous, leaving the screens alone to prune) —
// while pricing no more (and across the battery strictly fewer) moves.
func TestScreenResultInvariant(t *testing.T) {
	var probesOn, probesOff int
	for k, in := range screenInstances(t) {
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
				for _, noFilter := range []bool{false, true} {
					opt := DefaultOptions()
					opt.FirstImprovement = first
					a, err := hillClimb(in, seed, opt, func(e *engine) { e.filter = !noFilter })
					if err != nil {
						t.Fatal(err)
					}
					b, err := hillClimb(in, seed, opt, func(e *engine) { e.filter, e.screen = !noFilter, false })
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("inst%d/%s/first=%v/nofilter=%v", k, seedName, first, noFilter)
					if math.Float64bits(a.Period) != math.Float64bits(b.Period) ||
						a.Mapping.String() != b.Mapping.String() {
						t.Fatalf("%s: screen changed the descent:\n  on  %v (%v)\n  off %v (%v)",
							label, a.Period, a.Mapping, b.Period, b.Mapping)
					}
					if a.Accepted != b.Accepted {
						t.Fatalf("%s: screen changed the accepted-move count: %d vs %d",
							label, a.Accepted, b.Accepted)
					}
					if a.Probes > b.Probes {
						t.Fatalf("%s: screen probed more (%d) than the full scan (%d)",
							label, a.Probes, b.Probes)
					}
					probesOn += a.Probes
					probesOff += b.Probes
				}
			}
		}
	}
	if probesOn >= probesOff {
		t.Fatalf("screens saved nothing across the battery: %d vs %d probes", probesOn, probesOff)
	}
	t.Logf("battery probes: screened %d, full %d (%.1f%% skipped)",
		probesOn, probesOff, 100*(1-float64(probesOn)/float64(probesOff)))
}

// TestRestartsDeterministic: multi-start hill climbing must be a pure
// function of (instance, seed, options) — the restart streams come from
// DeriveRNG(RestartSeed, r), never from scheduling.
func TestRestartsDeterministic(t *testing.T) {
	in, err := gen.InTree(gen.Default(24, 4, 8), 3, gen.RNG(9))
	if err != nil {
		t.Fatal(err)
	}
	seed, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Restarts = 5
	opt.RestartSeed = 12345
	a, err := HillClimb(in, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HillClimb(in, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Period != b.Period || a.Probes != b.Probes || a.Accepted != b.Accepted ||
		a.Mapping.String() != b.Mapping.String() {
		t.Fatalf("two identical multi-start runs diverged: %v/%v probes %d/%d", a.Period, b.Period, a.Probes, b.Probes)
	}
}

// TestRestartsNeverWorse: across the battery, the multi-start result must
// never exceed the single-descent result from the same caller seed (the
// best-of keeps the caller's descent unless a restart strictly beats it),
// and the refined-result contract must hold throughout.
func TestRestartsNeverWorse(t *testing.T) {
	for k, in := range reproInstances(t) {
		seed, err := heuristics.H4w(in, nil, heuristics.Options{})
		if err != nil {
			t.Fatal(err)
		}
		single, err := HillClimb(in, seed, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Restarts = 6
		opt.RestartSeed = int64(700 + k)
		multi, err := HillClimb(in, seed, opt)
		if err != nil {
			t.Fatal(err)
		}
		if multi.Period > single.Period {
			t.Fatalf("inst%d: restarts worsened the result: %v > %v", k, multi.Period, single.Period)
		}
		if multi.Probes < single.Probes {
			t.Fatalf("inst%d: multi-start priced fewer moves (%d) than its own first descent (%d)", k, multi.Probes, single.Probes)
		}
		checkRefined(t, in, seed, multi, fmt.Sprintf("restarts inst%d", k))
	}
}

// TestRestartsOneToOne: under the one-to-one rule most constructive
// restart seeds violate the rule and must be skipped silently — the run
// still succeeds, keeps the rule, and never worsens the caller's seed.
func TestRestartsOneToOne(t *testing.T) {
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
	opt.Restarts = 4
	res, err := HillClimb(in, seed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.CheckRule(in.App, core.OneToOne); err != nil {
		t.Fatalf("multi-start broke the one-to-one rule: %v", err)
	}
	seedP, err := core.PeriodE(in, seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period > seedP {
		t.Fatalf("one-to-one multi-start worsened the seed: %v > %v", res.Period, seedP)
	}
}
