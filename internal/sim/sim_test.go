package sim

import (
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/platform"
)

// failFree builds a deterministic chain instance with no failures:
// n tasks of distinct types on m machines, constant time w.
func failFree(t *testing.T, n, m int, w float64) *core.Instance {
	t.Helper()
	types := make([]app.TypeID, n)
	for i := range types {
		types[i] = app.TypeID(i)
	}
	a := app.MustChain(types)
	p, err := platform.NewHomogeneous(n, m, w)
	if err != nil {
		t.Fatal(err)
	}
	f, err := failure.NewUniform(n, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDeterministicPipelineDrains(t *testing.T) {
	// 3 tasks, 3 machines, no failures, 10 products: all 10 come out.
	in := failFree(t, 3, 3, 100)
	mp := core.NewMapping(3)
	for i := 0; i < 3; i++ {
		mp.Assign(app.TaskID(i), platform.MachineID(i))
	}
	st, err := Run(in, mp, Options{Inputs: []int64{10}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Outputs != 10 || !st.Drained {
		t.Fatalf("outputs=%d drained=%v", st.Outputs, st.Drained)
	}
	// Pipeline of 3 stages at 100 ms: makespan = (10+2)·100 = 1200 ms.
	if math.Abs(st.Time-1200) > 1e-9 {
		t.Fatalf("makespan = %v, want 1200", st.Time)
	}
	if st.LossesPerTask[0] != 0 || st.Processed[0] != 10 {
		t.Fatalf("losses=%v processed=%v", st.LossesPerTask, st.Processed)
	}
}

func TestSingleMachineSerialization(t *testing.T) {
	// 2 tasks on one machine, no failures, 5 products: the machine does
	// 10 services of 100 ms → 1000 ms.
	in := failFree(t, 2, 1, 100)
	mp := core.NewMapping(2)
	mp.Assign(0, 0)
	mp.Assign(1, 0)
	st, err := Run(in, mp, Options{Inputs: []int64{5}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Outputs != 5 {
		t.Fatalf("outputs = %d", st.Outputs)
	}
	if math.Abs(st.Time-1000) > 1e-9 {
		t.Fatalf("makespan = %v, want 1000", st.Time)
	}
	if u := st.Utilization(0); math.Abs(u-1) > 1e-9 {
		t.Fatalf("utilization = %v, want 1", u)
	}
}

func TestLossesReduceOutputs(t *testing.T) {
	// Single task with f = 0.5: roughly half of a large batch survives.
	a := app.MustChain([]app.TypeID{0})
	p, _ := platform.NewHomogeneous(1, 1, 10)
	f, _ := failure.NewUniform(1, 1, 0.5)
	in, err := core.NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	mp := core.NewMapping(1)
	mp.Assign(0, 0)
	st, err := Run(in, mp, Options{Inputs: []int64{10000}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(st.Outputs) / 10000
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("survival ratio %v far from 0.5", ratio)
	}
	if st.LossesPerTask[0]+st.Outputs != 10000 {
		t.Fatalf("losses+outputs = %d, want 10000", st.LossesPerTask[0]+st.Outputs)
	}
}

func TestJoinConsumesBothBranches(t *testing.T) {
	// Branch A: T0; branch B: T1; join T2. One product per branch →
	// exactly one output; starving one branch yields zero.
	b := app.NewBuilder()
	t0 := b.AddTask(0, "")
	t1 := b.AddTask(1, "")
	b.Join(2, "join", t0, t1)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := platform.NewHomogeneous(3, 3, 50)
	f, _ := failure.NewUniform(3, 3, 0)
	in, err := core.NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	mp := core.NewMapping(3)
	for i := 0; i < 3; i++ {
		mp.Assign(app.TaskID(i), platform.MachineID(i))
	}
	st, err := Run(in, mp, Options{Inputs: []int64{3, 5}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Outputs != 3 {
		t.Fatalf("outputs = %d, want 3 (limited by the starved branch)", st.Outputs)
	}
	st2, err := Run(in, mp, Options{Inputs: []int64{0, 5}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Outputs != 0 {
		t.Fatalf("outputs = %d, want 0", st2.Outputs)
	}
}

func TestRunValidation(t *testing.T) {
	in := failFree(t, 2, 2, 100)
	mp := core.NewMapping(2)
	mp.Assign(0, 0) // incomplete
	if _, err := Run(in, mp, Options{Inputs: []int64{1}}); err == nil {
		t.Fatal("incomplete mapping accepted")
	}
	mp.Assign(1, 1)
	if _, err := Run(in, mp, Options{Inputs: []int64{1, 2}}); err == nil {
		t.Fatal("wrong batch count accepted")
	}
	if _, err := Run(in, mp, Options{Inputs: []int64{-1}}); err == nil {
		t.Fatal("negative batch accepted")
	}
}

func TestPlanBatches(t *testing.T) {
	a := app.MustChain([]app.TypeID{0})
	p, _ := platform.NewHomogeneous(1, 1, 10)
	f, _ := failure.NewUniform(1, 1, 0.5)
	in, _ := core.NewInstance(a, p, f)
	mp := core.NewMapping(1)
	mp.Assign(0, 0)
	b, err := PlanBatches(in, mp, 100, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	// x = 2, so 100 outputs need ~200 inputs; +10% → 220.
	if len(b) != 1 || b[0] != 220 {
		t.Fatalf("batches = %v, want [220]", b)
	}
}

func TestMeasuredThroughputMatchesAnalyticPeriod(t *testing.T) {
	// The headline cross-check: on random mapped chains the empirical
	// steady-state throughput must approach 1/period.
	for seed := int64(0); seed < 4; seed++ {
		in, err := gen.Chain(gen.Default(8, 3, 4), gen.RNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		mp, err := heuristics.H4w(in, nil, heuristics.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := core.Evaluate(in, mp)
		if err != nil {
			t.Fatal(err)
		}
		thr, err := MeasureThroughput(in, mp, 3000, 0.2, seed)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(thr*ev.Period - 1)
		if rel > 0.08 {
			t.Fatalf("seed %d: empirical throughput %v vs analytic %v (rel err %.3f)",
				seed, thr, 1/ev.Period, rel)
		}
	}
}

func TestMeasureThroughputValidation(t *testing.T) {
	in := failFree(t, 2, 2, 100)
	mp := core.NewMapping(2)
	mp.Assign(0, 0)
	mp.Assign(1, 1)
	if _, err := MeasureThroughput(in, mp, 0, 0.1, 1); err == nil {
		t.Fatal("outputs=0 accepted")
	}
	if _, err := MeasureThroughput(in, mp, 10, 1.5, 1); err == nil {
		t.Fatal("warmup >= 1 accepted")
	}
}

func TestRoundRobinPolicyAlsoDrains(t *testing.T) {
	in := failFree(t, 3, 1, 10)
	mp := core.NewMapping(3)
	for i := 0; i < 3; i++ {
		mp.Assign(app.TaskID(i), 0)
	}
	st, err := Run(in, mp, Options{Inputs: []int64{20}, Seed: 1, Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if st.Outputs != 20 || !st.Drained {
		t.Fatalf("outputs=%d drained=%v", st.Outputs, st.Drained)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	in := failFree(t, 2, 2, 100)
	mp := core.NewMapping(2)
	mp.Assign(0, 0)
	mp.Assign(1, 1)
	st, err := Run(in, mp, Options{Inputs: []int64{1000}, Seed: 1, MaxEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Drained {
		t.Fatal("run claims drained despite the event cap")
	}
	if st.Events > 11 {
		t.Fatalf("events = %d, cap ignored", st.Events)
	}
}
