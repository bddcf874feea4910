package platform

import (
	"math"
	"testing"

	"microfab/internal/app"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		w    [][]float64
	}{
		{"empty", nil},
		{"empty row", [][]float64{{}}},
		{"ragged", [][]float64{{1, 2}, {1}}},
		{"zero time", [][]float64{{0}}},
		{"negative time", [][]float64{{-3}}},
		{"infinite time", [][]float64{{math.Inf(1)}}},
	}
	for _, c := range cases {
		if _, err := New(c.w); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestTimeAndNames(t *testing.T) {
	p, err := New([][]float64{{100, 200}, {300, 400}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumMachines() != 2 || p.NumTasks() != 2 {
		t.Fatalf("dims = (%d,%d)", p.NumTasks(), p.NumMachines())
	}
	if p.Time(1, 0) != 300 {
		t.Fatalf("Time(1,0) = %v", p.Time(1, 0))
	}
	if p.Name(1) != "M2" {
		t.Fatalf("default name = %q", p.Name(1))
	}
	p.SetName(1, "gripper")
	if p.Name(1) != "gripper" {
		t.Fatalf("renamed = %q", p.Name(1))
	}
}

func TestHomogeneous(t *testing.T) {
	p, err := NewHomogeneous(3, 4, 250)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsHomogeneous() {
		t.Fatal("homogeneous platform not detected")
	}
	for _, h := range p.Heterogeneity() {
		if h != 0 {
			t.Fatalf("heterogeneity %v on homogeneous platform", h)
		}
	}
	q, _ := New([][]float64{{100, 100}, {100, 200}})
	if q.IsHomogeneous() {
		t.Fatal("heterogeneous platform claimed homogeneous")
	}
}

func TestNewHomogeneousRejectsBadSizes(t *testing.T) {
	if _, err := NewHomogeneous(0, 3, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewHomogeneous(3, 0, 1); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestHeterogeneityValues(t *testing.T) {
	// Column 0 constant -> 0; column 1 is {100,300}: mean 200, population
	// stddev 100.
	p, _ := New([][]float64{{100, 100}, {100, 300}})
	h := p.Heterogeneity()
	if h[0] != 0 {
		t.Fatalf("h[0] = %v, want 0", h[0])
	}
	if math.Abs(h[1]-100) > 1e-9 {
		t.Fatalf("h[1] = %v, want 100", h[1])
	}
}

func TestCheckTypedTimes(t *testing.T) {
	a := app.MustChain([]app.TypeID{0, 1, 0})
	ok, _ := New([][]float64{{100, 200}, {300, 400}, {100, 200}})
	if err := ok.CheckTypedTimes(a); err != nil {
		t.Fatalf("valid typed times rejected: %v", err)
	}
	bad, _ := New([][]float64{{100, 200}, {300, 400}, {101, 200}})
	if err := bad.CheckTypedTimes(a); err == nil {
		t.Fatal("typed-time violation accepted")
	}
	short, _ := New([][]float64{{100, 200}})
	if err := short.CheckTypedTimes(a); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestRowIsSharedView(t *testing.T) {
	p, _ := New([][]float64{{100, 200}})
	r := p.Row(0)
	if len(r) != 2 || r[0] != 100 {
		t.Fatalf("Row = %v", r)
	}
}
