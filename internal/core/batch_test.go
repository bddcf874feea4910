// Differential tests for the batch pricing kernels: Evaluator.TrialAll and
// Pricer.PriceAll must return, for every machine, exactly the bits of the
// corresponding scalar Trial call — not merely close. Bit-equality is what
// lets every consumer (exact child ordering, heuristics argmin, search
// scans, oto pruning) switch to the one-pass kernels without changing a
// single decision, so it is checked with ==, never a tolerance.
package core_test

import (
	"fmt"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// checkTrialAllBitEqual compares, for every task, the TrialAll row against
// m individual Trial calls: the ok flags must agree and every priced load
// must be bit-identical.
func checkTrialAllBitEqual(t testing.TB, in *core.Instance, ev *core.Evaluator, step string) {
	t.Helper()
	m := in.M()
	out := make([]float64, m)
	for i := 0; i < in.N(); i++ {
		id := app.TaskID(i)
		okAll := ev.TrialAll(id, out)
		if _, okOne := ev.Trial(id, 0); okAll != okOne {
			t.Fatalf("%s: TrialAll(T%d) ok=%v, Trial ok=%v", step, i+1, okAll, okOne)
		}
		if !okAll {
			continue
		}
		for u := 0; u < m; u++ {
			want, _ := ev.Trial(id, platform.MachineID(u))
			if out[u] != want {
				t.Fatalf("%s: TrialAll(T%d)[M%d] = %v, Trial = %v (must be bit-equal)",
					step, i+1, u+1, out[u], want)
			}
		}
	}
}

// TestTrialAllDifferential drives an Evaluator through the same 54-instance
// random-mutation corpus as TestEvaluatorDifferential (chains and in-trees,
// all three rules) and checks the batch row against the scalar Trial after
// every step. The comparison is strict bit-equality at every partial state
// the mutation walk reaches, including states with unknown demands (both
// sides must report them) and the drained end state.
func TestTrialAllDifferential(t *testing.T) {
	const instances = 54
	const steps = 220
	for k := 0; k < instances; k++ {
		k := k
		t.Run(fmt.Sprintf("inst%02d", k), func(t *testing.T) {
			t.Parallel()
			rule := core.Rule(k % 3)
			pr := gen.Default(4+k%17, 2+k%3, 6+k%5)
			if rule == core.OneToOne {
				pr.N = 3 + k%8
				pr.M = pr.N + 2
				pr.P = 2
			}
			rng := gen.RNG(int64(1000 + k))
			var in *core.Instance
			var err error
			if k%2 == 0 {
				in, err = gen.Chain(pr, rng)
			} else {
				in, err = gen.InTree(pr, 2+k%2, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			ev := core.NewEvaluator(in)
			mp := core.NewMapping(in.N())
			checkTrialAllBitEqual(t, in, ev, "initial")
			for s := 0; s < steps; s++ {
				desc := mutate(in, mp, ev, rule, rng)
				checkTrialAllBitEqual(t, in, ev, fmt.Sprintf("step %d (%s)", s, desc))
			}
			for i := 0; i < in.N(); i++ {
				ev.Unassign(app.TaskID(i))
			}
			checkTrialAllBitEqual(t, in, ev, "drained")
		})
	}
}

// checkPriceAllBitEqual compares, for every task, PriceAll against m scalar
// Pricer.Trial calls (ok flags and bits), and PriceAllAt at the current
// demand against PriceAll.
func checkPriceAllBitEqual(t testing.TB, in *core.Instance, p *core.Pricer, step string) {
	t.Helper()
	m := in.M()
	out := make([]float64, m)
	at := make([]float64, m)
	for i := 0; i < in.N(); i++ {
		id := app.TaskID(i)
		okAll := p.PriceAll(id, out)
		d, okD := p.Demand(id)
		if okAll != okD {
			t.Fatalf("%s: PriceAll(T%d) ok=%v, Demand ok=%v", step, i+1, okAll, okD)
		}
		if !okAll {
			continue
		}
		for u := 0; u < m; u++ {
			want, ok := p.Trial(id, platform.MachineID(u))
			if !ok {
				t.Fatalf("%s: Trial(T%d, M%d) demand unknown but PriceAll succeeded", step, i+1, u+1)
			}
			if out[u] != want {
				t.Fatalf("%s: PriceAll(T%d)[M%d] = %v, Trial = %v (must be bit-equal)",
					step, i+1, u+1, out[u], want)
			}
		}
		p.PriceAllAt(id, d, at)
		for u := 0; u < m; u++ {
			if at[u] != out[u] {
				t.Fatalf("%s: PriceAllAt(T%d, d=%v)[M%d] = %v, PriceAll = %v",
					step, i+1, d, u+1, at[u], out[u])
			}
		}
	}
}

// TestPriceAllDifferential exercises the Pricer batch kernel under the
// root-first/LIFO discipline the engine requires: repeated full push walks
// (reverse-topological, machines rotated per round) with a bit-equality
// check after every push, the Trial/Assign landing promise verified against
// the batch row, then a full LIFO pop walk checked the same way — the loads
// must come back to exact zeros.
func TestPriceAllDifferential(t *testing.T) {
	const instances = 30
	for k := 0; k < instances; k++ {
		k := k
		t.Run(fmt.Sprintf("inst%02d", k), func(t *testing.T) {
			t.Parallel()
			prm := gen.Default(4+k%14, 2+k%3, 5+k%4)
			rng := gen.RNG(int64(4000 + k))
			var in *core.Instance
			var err error
			if k%2 == 0 {
				in, err = gen.Chain(prm, rng)
			} else {
				in, err = gen.InTree(prm, 2+k%2, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			p := core.NewPricer(in)
			m := in.M()
			out := make([]float64, m)
			order := in.App.ReverseTopological()
			checkPriceAllBitEqual(t, in, p, "empty")
			for round := 0; round < 3; round++ {
				for d, i := range order {
					u := platform.MachineID((d + round + rng.Intn(m)) % m)
					if !p.PriceAll(i, out) {
						t.Fatalf("round %d push %d: demand of T%d unknown in root-first order", round, d, int(i)+1)
					}
					promised := out[u]
					if err := p.Assign(i, u); err != nil {
						t.Fatal(err)
					}
					if got := p.Load(u); got != promised {
						t.Fatalf("round %d push %d: PriceAll promised %v, Assign produced %v", round, d, promised, got)
					}
					checkPriceAllBitEqual(t, in, p, fmt.Sprintf("round %d push %d", round, d))
				}
				for d := len(order) - 1; d >= 0; d-- {
					p.Unassign(order[d])
					checkPriceAllBitEqual(t, in, p, fmt.Sprintf("round %d pop %d", round, d))
				}
				for u := 0; u < m; u++ {
					if got := p.Load(platform.MachineID(u)); got != 0 {
						t.Fatalf("round %d: popped load(M%d) = %v, want exactly 0", round, u+1, got)
					}
				}
			}
		})
	}
}

var benchSink float64

// BenchmarkTrialAll measures the batch kernel against the m-call scalar
// loop it replaces, on complete evaluators over chains with m machines.
// The acceptance bar for the batched refactor is batch >= 2x loop at m >= 8.
func BenchmarkTrialAll(b *testing.B) {
	for _, m := range []int{8, 16} {
		in, err := gen.Chain(gen.Default(24, 2, m), gen.RNG(7))
		if err != nil {
			b.Fatal(err)
		}
		ev := core.NewEvaluator(in)
		for d, i := range in.App.ReverseTopological() {
			if err := ev.Assign(i, platform.MachineID(d%m)); err != nil {
				b.Fatal(err)
			}
		}
		n := in.N()
		out := make([]float64, m)
		b.Run(fmt.Sprintf("m%d/batch", m), func(b *testing.B) {
			for bi := 0; bi < b.N; bi++ {
				for i := 0; i < n; i++ {
					ev.TrialAll(app.TaskID(i), out)
					benchSink += out[0]
				}
			}
		})
		b.Run(fmt.Sprintf("m%d/loop", m), func(b *testing.B) {
			for bi := 0; bi < b.N; bi++ {
				for i := 0; i < n; i++ {
					for u := 0; u < m; u++ {
						v, _ := ev.Trial(app.TaskID(i), platform.MachineID(u))
						benchSink += v
					}
				}
			}
		})
	}
}

// BenchmarkPriceAll is the Pricer-side twin: one batch pass versus m Trial
// calls on a mid-search partial assignment.
func BenchmarkPriceAll(b *testing.B) {
	for _, m := range []int{8, 16} {
		in, err := gen.Chain(gen.Default(24, 2, m), gen.RNG(7))
		if err != nil {
			b.Fatal(err)
		}
		p := core.NewPricer(in)
		order := in.App.ReverseTopological()
		for d, i := range order[:len(order)/2] {
			if err := p.Assign(i, platform.MachineID(d%m)); err != nil {
				b.Fatal(err)
			}
		}
		next := order[len(order)/2]
		out := make([]float64, m)
		b.Run(fmt.Sprintf("m%d/batch", m), func(b *testing.B) {
			for bi := 0; bi < b.N; bi++ {
				p.PriceAll(next, out)
				benchSink += out[0]
			}
		})
		b.Run(fmt.Sprintf("m%d/loop", m), func(b *testing.B) {
			for bi := 0; bi < b.N; bi++ {
				for u := 0; u < m; u++ {
					v, _ := p.Trial(next, platform.MachineID(u))
					benchSink += v
				}
			}
		})
	}
}
