package core

import (
	"math"
	"math/rand"
	"testing"

	"microfab/internal/app"
	"microfab/internal/failure"
	"microfab/internal/platform"
)

// twoTaskInstance builds a hand-checkable chain: T0 -> T1, one machine per
// task available.
//
//	w = [[100, 200], [300, 400]]
//	f = [[0.5, 0.0], [0.0, 0.2]]
func twoTaskInstance(t *testing.T) *Instance {
	t.Helper()
	a := app.MustChain([]app.TypeID{0, 1})
	p, err := platform.New([][]float64{{100, 200}, {300, 400}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := failure.New([][]float64{{0.5, 0.0}, {0.0, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestProductCountsHandComputed(t *testing.T) {
	in := twoTaskInstance(t)
	m := NewMapping(2)
	m.Assign(0, 0) // T0 on M0: f=0.5 -> F=2
	m.Assign(1, 1) // T1 on M1: f=0.2 -> F=1.25
	x, err := ProductCounts(in, m)
	if err != nil {
		t.Fatal(err)
	}
	// x[1] = 1/(1-0.2) = 1.25; x[0] = 2 * 1.25 = 2.5.
	if math.Abs(x[1]-1.25) > 1e-12 || math.Abs(x[0]-2.5) > 1e-12 {
		t.Fatalf("x = %v, want [2.5, 1.25]", x)
	}
}

func TestEvaluateHandComputed(t *testing.T) {
	in := twoTaskInstance(t)
	m := NewMapping(2)
	m.Assign(0, 0)
	m.Assign(1, 1)
	ev, err := Evaluate(in, m)
	if err != nil {
		t.Fatal(err)
	}
	// period(M0) = 2.5·100 = 250; period(M1) = 1.25·400 = 500.
	if math.Abs(ev.MachinePeriods[0]-250) > 1e-9 {
		t.Fatalf("period(M0) = %v, want 250", ev.MachinePeriods[0])
	}
	if math.Abs(ev.MachinePeriods[1]-500) > 1e-9 {
		t.Fatalf("period(M1) = %v, want 500", ev.MachinePeriods[1])
	}
	if ev.Period != ev.MachinePeriods[1] || ev.Critical != 1 {
		t.Fatalf("critical machine wrong: %v / M%d", ev.Period, ev.Critical+1)
	}
	if math.Abs(ev.Throughput-1.0/500) > 1e-15 {
		t.Fatalf("throughput = %v", ev.Throughput)
	}
}

func TestEvaluateSameMachine(t *testing.T) {
	in := twoTaskInstance(t)
	m := NewMapping(2)
	m.Assign(0, 0) // F=2
	m.Assign(1, 0) // T1 on M0: f=0 -> F=1, w=300
	ev, err := Evaluate(in, m)
	if err != nil {
		t.Fatal(err)
	}
	// x[1]=1, x[0]=2; period(M0) = 2·100 + 1·300 = 500.
	if math.Abs(ev.Period-500) > 1e-9 || ev.Critical != 0 {
		t.Fatalf("period = %v on M%d, want 500 on M1", ev.Period, ev.Critical+1)
	}
}

func TestIncompleteMappingErrors(t *testing.T) {
	in := twoTaskInstance(t)
	m := NewMapping(2)
	m.Assign(0, 0)
	if _, err := Evaluate(in, m); err == nil {
		t.Fatal("incomplete mapping evaluated")
	}
	if p := Period(in, m); !math.IsInf(p, 1) {
		t.Fatalf("Period(incomplete) = %v, want +Inf", p)
	}
}

func TestCheckRuleOneToOne(t *testing.T) {
	in := twoTaskInstance(t)
	m := NewMapping(2)
	m.Assign(0, 0)
	m.Assign(1, 0)
	if err := m.CheckRule(in.App, OneToOne); err == nil {
		t.Fatal("one-to-one violation accepted")
	}
	m.Assign(1, 1)
	if err := m.CheckRule(in.App, OneToOne); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRuleSpecialized(t *testing.T) {
	a := app.MustChain([]app.TypeID{0, 1, 0})
	m := NewMapping(3)
	m.Assign(0, 0)
	m.Assign(1, 0) // different type on M0
	m.Assign(2, 1)
	if err := m.CheckRule(a, Specialized); err == nil {
		t.Fatal("specialization violation accepted")
	}
	m.Assign(1, 1)
	m.Assign(2, 0) // same type as task 0: allowed
	if err := m.CheckRule(a, Specialized); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckRule(a, GeneralRule); err != nil {
		t.Fatal(err)
	}
}

func TestMappingHelpers(t *testing.T) {
	m := NewMapping(3)
	if m.Complete() {
		t.Fatal("empty mapping claims complete")
	}
	m.Assign(0, 2)
	m.Assign(1, 2)
	m.Assign(2, 0)
	if !m.Complete() {
		t.Fatal("complete mapping claims incomplete")
	}
	if got := m.TasksOn(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("TasksOn(2) = %v", got)
	}
	c := m.Clone()
	c.Assign(0, 1)
	if m.Machine(0) != 2 {
		t.Fatal("clone mutated the original")
	}
	s := m.Slice()
	s[0] = 9
	if m.Machine(0) != 2 {
		t.Fatal("Slice shares memory")
	}
	if m.String() != "T1->M3 T2->M3 T3->M1" {
		t.Fatalf("String = %q", m.String())
	}
	m.Unassign(1)
	if m.Machine(1) != platform.NoMachine {
		t.Fatal("Unassign had no effect")
	}
	if got := m.String(); got != "T1->M3 T2->? T3->M1" {
		t.Fatalf("String = %q", got)
	}
}

func TestNewInstanceValidation(t *testing.T) {
	a := app.MustChain([]app.TypeID{0, 1})
	p, _ := platform.New([][]float64{{100, 200}, {300, 400}})
	f, _ := failure.New([][]float64{{0.1, 0.1}, {0.1, 0.1}})
	if _, err := NewInstance(nil, p, f); err == nil {
		t.Fatal("nil app accepted")
	}
	shortP, _ := platform.New([][]float64{{100, 200}})
	if _, err := NewInstance(a, shortP, f); err == nil {
		t.Fatal("task-count mismatch accepted")
	}
	shortF, _ := failure.New([][]float64{{0.1, 0.1}})
	if _, err := NewInstance(a, p, shortF); err == nil {
		t.Fatal("failure-row mismatch accepted")
	}
	narrowF, _ := failure.New([][]float64{{0.1}, {0.1}})
	if _, err := NewInstance(a, p, narrowF); err == nil {
		t.Fatal("machine-count mismatch accepted")
	}
	// Typed-time violation: same type, different w.
	a2 := app.MustChain([]app.TypeID{0, 0})
	if _, err := NewInstance(a2, p, f); err == nil {
		t.Fatal("typed-time violation accepted")
	}
}

func TestPlanInputs(t *testing.T) {
	in := twoTaskInstance(t)
	m := NewMapping(2)
	m.Assign(0, 0)
	m.Assign(1, 1)
	plan, err := PlanInputs(in, m, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Single source T0 with x=2.5 → 250 raw products for 100 outputs.
	if len(plan.PerSource) != 1 || math.Abs(plan.PerSource[0]-250) > 1e-9 {
		t.Fatalf("plan = %+v", plan)
	}
	if _, err := PlanInputs(in, m, 0); err == nil {
		t.Fatal("xout=0 accepted")
	}
}

func TestLowerBoundHoldsOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 2+rng.Intn(5), 2+rng.Intn(3))
		lb := LowerBoundPeriod(in)
		// Any complete random mapping must have period >= lb.
		m := NewMapping(in.N())
		for i := 0; i < in.N(); i++ {
			m.Assign(app.TaskID(i), platform.MachineID(rng.Intn(in.M())))
		}
		if p := Period(in, m); p < lb-1e-9 {
			t.Fatalf("trial %d: period %v below lower bound %v", trial, p, lb)
		}
	}
}

// randomInstance builds a random chain instance with per-task types
// (one distinct type per task, so typed-time checks are vacuous).
func randomInstance(rng *rand.Rand, n, m int) *Instance {
	types := make([]app.TypeID, n)
	for i := range types {
		types[i] = app.TypeID(i)
	}
	a := app.MustChain(types)
	w := make([][]float64, n)
	f := make([][]float64, n)
	for i := 0; i < n; i++ {
		w[i] = make([]float64, m)
		f[i] = make([]float64, m)
		for u := 0; u < m; u++ {
			w[i][u] = 100 + rng.Float64()*900
			f[i][u] = rng.Float64() * 0.2
		}
	}
	p, err := platform.New(w)
	if err != nil {
		panic(err)
	}
	fm, err := failure.New(f)
	if err != nil {
		panic(err)
	}
	in, err := NewInstance(a, p, fm)
	if err != nil {
		panic(err)
	}
	return in
}

func TestProductCountsMonotoneInFailure(t *testing.T) {
	// Property: raising any failure rate on the assigned machine cannot
	// decrease any x[i] upstream of it.
	a := app.MustChain([]app.TypeID{0, 1, 2})
	p, _ := platform.NewHomogeneous(3, 3, 100)
	mk := func(f1 float64) []float64 {
		f, err := failure.New([][]float64{
			{0.01, 0.01, 0.01},
			{f1, f1, f1},
			{0.01, 0.01, 0.01},
		})
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInstance(a, p, f)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMapping(3)
		m.Assign(0, 0)
		m.Assign(1, 1)
		m.Assign(2, 2)
		x, err := ProductCounts(in, m)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	lo := mk(0.01)
	hi := mk(0.10)
	if hi[0] <= lo[0] || hi[1] <= lo[1] {
		t.Fatalf("x not monotone: lo=%v hi=%v", lo, hi)
	}
	if math.Abs(hi[2]-lo[2]) > 1e-12 {
		t.Fatalf("x[2] changed: %v vs %v", hi[2], lo[2])
	}
}

func TestPartialProductCounts(t *testing.T) {
	in := twoTaskInstance(t)
	m := NewMapping(2)
	m.Assign(1, 1) // only the root assigned
	x := PartialProductCounts(in, m)
	if math.Abs(x[1]-1.25) > 1e-12 {
		t.Fatalf("x[1] = %v, want 1.25", x[1])
	}
	if x[0] != 0 {
		t.Fatalf("x[0] = %v, want 0 (unassigned)", x[0])
	}
	m.Assign(0, 0)
	x = PartialProductCounts(in, m)
	if math.Abs(x[0]-2.5) > 1e-12 {
		t.Fatalf("x[0] = %v, want 2.5", x[0])
	}
}

func TestJoinTreeEvaluation(t *testing.T) {
	// Figure-1 shape: T0->T1->T3, T2->T3 (join), all distinct types.
	b := app.NewBuilder()
	t0 := b.AddTask(0, "")
	t1 := b.AddTask(1, "")
	t2 := b.AddTask(2, "")
	t3 := b.Join(3, "join", t1, t2)
	b.AddDep(t0, t1)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := platform.NewHomogeneous(4, 4, 100)
	f, _ := failure.New([][]float64{
		{0.5, 0.5, 0.5, 0.5},
		{0, 0, 0, 0},
		{0.2, 0.2, 0.2, 0.2},
		{0, 0, 0, 0},
	})
	in, err := NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMapping(4)
	for i := 0; i < 4; i++ {
		m.Assign(app.TaskID(i), platform.MachineID(i))
	}
	x, err := ProductCounts(in, m)
	if err != nil {
		t.Fatal(err)
	}
	// x[t3]=1, x[t1]=1, x[t2]=1.25, x[t0]=2 — each branch feeds the join
	// independently.
	if x[t3] != 1 || x[t1] != 1 || math.Abs(x[t2]-1.25) > 1e-12 || x[t0] != 2 {
		t.Fatalf("x = %v", x)
	}
	// Two sources: t0 and t2.
	plan, err := PlanInputs(in, m, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PerSource) != 2 {
		t.Fatalf("%d sources planned", len(plan.PerSource))
	}
	if math.Abs(plan.Total-(20+12.5)) > 1e-9 {
		t.Fatalf("total inputs = %v, want 32.5", plan.Total)
	}
}

func TestRuleStrings(t *testing.T) {
	if OneToOne.String() != "one-to-one" || Specialized.String() != "specialized" || GeneralRule.String() != "general" {
		t.Fatal("rule strings wrong")
	}
}

func TestParseRule(t *testing.T) {
	// Every rule round-trips through its String form.
	for _, r := range []Rule{OneToOne, Specialized, GeneralRule} {
		got, err := ParseRule(r.String())
		if err != nil || got != r {
			t.Fatalf("ParseRule(%q) = %v, %v; want %v", r.String(), got, err, r)
		}
	}
	for name, want := range map[string]Rule{"": Specialized, "oto": OneToOne} {
		if got, err := ParseRule(name); err != nil || got != want {
			t.Fatalf("ParseRule(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"Specialized", "one_to_one", "Rule(3)"} {
		if _, err := ParseRule(name); err == nil {
			t.Fatalf("ParseRule(%q) accepted", name)
		}
	}
}
