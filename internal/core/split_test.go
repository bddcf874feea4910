package core

import (
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/failure"
	"microfab/internal/platform"
)

func TestSplitLiftMatchesIntegralEvaluation(t *testing.T) {
	in := twoTaskInstance(t)
	m := NewMapping(2)
	m.Assign(0, 0)
	m.Assign(1, 1)
	evInt, err := Evaluate(in, m)
	if err != nil {
		t.Fatal(err)
	}
	evSplit, err := EvaluateSplit(in, m.Split(in.M()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(evInt.Period-evSplit.Period) > 1e-9 {
		t.Fatalf("split lift period %v != integral %v", evSplit.Period, evInt.Period)
	}
	for i := range evInt.ProductCounts {
		if math.Abs(evInt.ProductCounts[i]-evSplit.ProductCounts[i]) > 1e-9 {
			t.Fatalf("x[%d] differs: %v vs %v", i, evInt.ProductCounts[i], evSplit.ProductCounts[i])
		}
	}
}

func TestSplitHalving(t *testing.T) {
	// One task, two identical machines, no failures: a 50/50 split halves
	// the period.
	a := app.MustChain([]app.TypeID{0})
	p, _ := platform.NewHomogeneous(1, 2, 100)
	f, _ := failure.NewUniform(1, 2, 0)
	in, err := NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSplitMapping(1, 2)
	s.SetShare(0, 0, 0.5)
	s.SetShare(0, 1, 0.5)
	if err := s.Validate(a, Specialized); err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateSplit(in, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.Period-50) > 1e-9 {
		t.Fatalf("period = %v, want 50", ev.Period)
	}
}

func TestSplitValidate(t *testing.T) {
	a := app.MustChain([]app.TypeID{0, 1})
	s := NewSplitMapping(2, 2)
	s.SetShare(0, 0, 0.6) // sums to 0.6 only
	s.SetShare(1, 1, 1)
	if err := s.Validate(a, Specialized); err == nil {
		t.Fatal("share sum != 1 accepted")
	}
	s.SetShare(0, 1, 0.4) // M1 now carries type 0 (0.4) and type 1 (1.0)
	if err := s.Validate(a, Specialized); err == nil {
		t.Fatal("mixed types on one machine accepted under Specialized")
	}
	if err := s.Validate(a, GeneralRule); err != nil {
		t.Fatalf("general rule rejected a valid split: %v", err)
	}
	s2 := NewSplitMapping(1, 1)
	s2.SetShare(0, 0, -0.5)
	if err := s2.Validate(app.MustChain([]app.TypeID{0}), GeneralRule); err == nil {
		t.Fatal("negative share accepted")
	}
}

func TestSplitBlendedFailure(t *testing.T) {
	// One task split evenly over a perfect machine and a coin-flip
	// machine: survival = 0.5·1 + 0.5·0.5 = 0.75, x = 4/3.
	a := app.MustChain([]app.TypeID{0})
	p, _ := platform.NewHomogeneous(1, 2, 100)
	f, _ := failure.New([][]float64{{0, 0.5}})
	in, err := NewInstance(a, p, f)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSplitMapping(1, 2)
	s.SetShare(0, 0, 0.5)
	s.SetShare(0, 1, 0.5)
	ev, err := EvaluateSplit(in, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.ProductCounts[0]-4.0/3) > 1e-12 {
		t.Fatalf("x = %v, want 4/3", ev.ProductCounts[0])
	}
	// Each machine processes x/2 products at 100 ms.
	want := 4.0 / 3 / 2 * 100
	if math.Abs(ev.Period-want) > 1e-9 {
		t.Fatalf("period = %v, want %v", ev.Period, want)
	}
}

func TestEvaluateSplitRejectsZeroShares(t *testing.T) {
	a := app.MustChain([]app.TypeID{0})
	p, _ := platform.NewHomogeneous(1, 2, 100)
	f, _ := failure.NewUniform(1, 2, 0)
	in, _ := NewInstance(a, p, f)
	s := NewSplitMapping(1, 2) // all-zero shares
	if _, err := EvaluateSplit(in, s); err == nil {
		t.Fatal("zero-share task evaluated")
	}
}
