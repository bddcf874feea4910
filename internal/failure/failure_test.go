package failure

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := New([][]float64{{0.5, 0.5}, {0.5}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := New([][]float64{{1.0}}); err == nil {
		t.Fatal("rate 1 accepted (would make x infinite)")
	}
	if _, err := New([][]float64{{-0.1}}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := New([][]float64{{math.NaN()}}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestInflationAndSurvival(t *testing.T) {
	m, err := New([][]float64{{0.5, 0.0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Survival(0, 0) != 0.5 || m.Survival(0, 1) != 1 {
		t.Fatalf("survival wrong")
	}
	if m.Inflation(0, 0) != 2 || m.Inflation(0, 1) != 1 {
		t.Fatalf("inflation wrong: %v %v", m.Inflation(0, 0), m.Inflation(0, 1))
	}
}

func TestClassify(t *testing.T) {
	u, _ := NewUniform(2, 3, 0.01)
	if got := u.Classify(); got != Uniform {
		t.Fatalf("uniform classified as %v", got)
	}
	ta, _ := NewTaskOnly([]float64{0.01, 0.02}, 3)
	if got := ta.Classify(); got != TaskOnly {
		t.Fatalf("task-only classified as %v", got)
	}
	ma, _ := New([][]float64{{0.01, 0.02, 0.03}, {0.01, 0.02, 0.03}})
	if got := ma.Classify(); got != MachineOnly {
		t.Fatalf("machine-only classified as %v", got)
	}
	g, _ := New([][]float64{{0.01, 0.02}, {0.03, 0.01}})
	if got := g.Classify(); got != General {
		t.Fatalf("general classified as %v", got)
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		General: "general", TaskOnly: "task-only",
		MachineOnly: "machine-only", Uniform: "uniform",
	} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestWorstBestRate(t *testing.T) {
	m, _ := New([][]float64{{0.01, 0.05, 0.02}})
	if m.WorstRate(0) != 0.05 || m.BestRate(0) != 0.01 {
		t.Fatalf("worst/best = %v/%v", m.WorstRate(0), m.BestRate(0))
	}
}

func TestQuickInflationConsistency(t *testing.T) {
	// Property: Survival·Inflation == 1 for any valid rate.
	f := func(raw uint16) bool {
		r := float64(raw) / 65536 * 0.99
		m, err := NewUniform(1, 1, r)
		if err != nil {
			return false
		}
		return math.Abs(m.Survival(0, 0)*m.Inflation(0, 0)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
