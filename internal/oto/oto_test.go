package oto

import (
	"math"
	"math/rand"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// chainHomogeneous builds a chain instance on homogeneous machines with
// per-(task,machine) failures.
func chainHomogeneous(rng *rand.Rand, n, m int, w float64) *core.Instance {
	types := make([]app.TypeID, n)
	for i := range types {
		types[i] = app.TypeID(i)
	}
	a := app.MustChain(types)
	p, err := platform.NewHomogeneous(n, m, w)
	if err != nil {
		panic(err)
	}
	f := make([][]float64, n)
	for i := range f {
		f[i] = make([]float64, m)
		for u := range f[i] {
			f[i][u] = rng.Float64() * 0.3
		}
	}
	fm, err := failure.New(f)
	if err != nil {
		panic(err)
	}
	in, err := core.NewInstance(a, p, fm)
	if err != nil {
		panic(err)
	}
	return in
}

func TestOptimalChainHomogeneousMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		m := n + rng.Intn(3)
		in := chainHomogeneous(rng, n, m, 100)
		opt, err := OptimalChainHomogeneous(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.CheckRule(in.App, core.OneToOne); err != nil {
			t.Fatal(err)
		}
		bf, err := bruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		po, pb := core.Period(in, opt), core.Period(in, bf)
		if math.Abs(po-pb) > 1e-6*pb {
			t.Fatalf("trial %d: theorem-1 period %v != brute force %v", trial, po, pb)
		}
	}
}

func TestOptimalChainHomogeneousPreconditions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := chainHomogeneous(rng, 4, 3, 100) // n > m
	if _, err := OptimalChainHomogeneous(in); err == nil {
		t.Fatal("n > m accepted")
	}
	// Heterogeneous machines rejected.
	het, err := gen.Chain(gen.Default(3, 3, 5), gen.RNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimalChainHomogeneous(het); err == nil {
		t.Fatal("heterogeneous platform accepted")
	}
}

func TestOptimalTaskOnlyMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		pr := gen.Default(5, 3, 6)
		pr.TaskOnlyFailures = true
		in, err := gen.Chain(pr, gen.RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := OptimalTaskOnly(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.CheckRule(in.App, core.OneToOne); err != nil {
			t.Fatal(err)
		}
		bf, err := bruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		po, pb := core.Period(in, opt), core.Period(in, bf)
		if math.Abs(po-pb) > 1e-6*pb {
			t.Fatalf("seed %d: bottleneck period %v != brute force %v", seed, po, pb)
		}
	}
}

func TestOptimalTaskOnlyRejectsGeneralFailures(t *testing.T) {
	in, err := gen.Chain(gen.Default(4, 2, 5), gen.RNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimalTaskOnly(in); err == nil {
		t.Fatal("general failure matrix accepted by the task-only solver")
	}
}

func TestMappingFreeCounts(t *testing.T) {
	a := app.MustChain([]app.TypeID{0, 1})
	p, _ := platform.NewHomogeneous(2, 2, 100)
	f, _ := failure.NewTaskOnly([]float64{0.5, 0.2}, 2)
	in, err := core.NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	x, err := MappingFreeCounts(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[1]-1.25) > 1e-12 || math.Abs(x[0]-2.5) > 1e-12 {
		t.Fatalf("x = %v, want [2.5 1.25]", x)
	}
}

func TestGreedyValidOneToOne(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in, err := gen.Chain(gen.Default(6, 3, 8), gen.RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		mp, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := mp.CheckRule(in.App, core.OneToOne); err != nil {
			t.Fatal(err)
		}
		// Sanity: greedy is never better than brute force.
		bf, err := bruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		if core.Period(in, mp) < core.Period(in, bf)-1e-9 {
			t.Fatalf("seed %d: greedy beats brute force — impossible", seed)
		}
	}
}

func TestBruteForceGuards(t *testing.T) {
	in, err := gen.Chain(gen.Default(11, 3, 12), gen.RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bruteForce(in); err == nil {
		t.Fatal("oversized brute force accepted")
	}
	small, err := gen.Chain(gen.Default(5, 2, 4), gen.RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bruteForce(small); err == nil {
		t.Fatal("n > m brute force accepted")
	}
}

func TestTheorem1BottleneckIsFirstTask(t *testing.T) {
	// On a homogeneous chain, the period is always carried by the
	// machine of T1 (x[0] is the largest since every F >= 1).
	rng := rand.New(rand.NewSource(77))
	in := chainHomogeneous(rng, 4, 6, 100)
	opt, err := OptimalChainHomogeneous(in)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.Evaluate(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Critical != opt.Machine(0) {
		t.Fatalf("critical machine M%d is not T1's machine M%d", ev.Critical+1, opt.Machine(0)+1)
	}
}
