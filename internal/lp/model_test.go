package lp

import (
	"errors"
	"math"
	"testing"
)

func TestIterationLimitStatus(t *testing.T) {
	// A non-trivial LP with a 1-pivot cap must report the limit.
	m := NewModel(3)
	m.SetObj(0, -1)
	m.SetObj(1, -2)
	m.SetObj(2, -1)
	m.AddRow([]Coef{{0, 1}, {1, 1}, {2, 1}}, LE, 10)
	m.AddRow([]Coef{{0, 2}, {1, 1}}, LE, 8)
	m.AddRow([]Coef{{1, 1}, {2, 3}}, LE, 9)
	sol, err := m.SolveWithLimit(1)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit && sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Status == Optimal {
		t.Skip("solved in one pivot; nothing to assert")
	}
}

func TestMatrixExport(t *testing.T) {
	m := NewModel(2)
	m.AddRow([]Coef{{0, 3}, {1, -1}}, LE, 5)
	m.AddRow([]Coef{{1, 2}}, GE, 1)
	mat := m.Matrix()
	r, c := mat.Dims()
	if r != 2 || c != 2 {
		t.Fatalf("dims (%d,%d)", r, c)
	}
	if mat.At(0, 0) != 3 || mat.At(0, 1) != -1 || mat.At(1, 1) != 2 {
		t.Fatal("matrix entries wrong")
	}
}

func TestNamesAndObjCoef(t *testing.T) {
	m := NewModel(2)
	if m.Name(0) != "x0" {
		t.Fatalf("default name %q", m.Name(0))
	}
	m.SetName(0, "K")
	if m.Name(0) != "K" {
		t.Fatal("SetName ignored")
	}
	m.SetObj(1, 4.5)
	if m.ObjCoef(1) != 4.5 || m.ObjCoef(0) != 0 {
		t.Fatal("ObjCoef wrong")
	}
}

func TestSenseStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "==" {
		t.Fatal("sense strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration-limit" {
		t.Fatal("status strings wrong")
	}
}

func TestAddRowLatchesBadVar(t *testing.T) {
	// An out-of-range variable index must not panic (the model may be built
	// inside a long-lived daemon): AddRow drops the row, latches ErrBadVar,
	// and every solve entry point surfaces it.
	m := NewModel(1)
	if r := m.AddRow([]Coef{{5, 1}}, LE, 0); r != -1 {
		t.Fatalf("bad row accepted with index %d", r)
	}
	if !errors.Is(m.Err(), ErrBadVar) {
		t.Fatalf("Err() = %v, want ErrBadVar", m.Err())
	}
	if m.NumRows() != 0 {
		t.Fatalf("bad row retained: %d rows", m.NumRows())
	}
	if _, err := m.Solve(); !errors.Is(err, ErrBadVar) {
		t.Fatalf("Solve err = %v, want ErrBadVar", err)
	}
	if _, err := m.SolveWithLimit(10); !errors.Is(err, ErrBadVar) {
		t.Fatalf("SolveWithLimit err = %v, want ErrBadVar", err)
	}
	// The latch survives Clone.
	if !errors.Is(m.Clone().Err(), ErrBadVar) {
		t.Fatal("Clone dropped the latched error")
	}
	m = NewModel(2)
	if r := m.AddRow([]Coef{{0, 1}, {1, 1}}, LE, 3); r != 0 {
		t.Fatalf("row index on a fresh model = %d", r)
	}
	if sol, err := m.Solve(); err != nil || sol.Status != Optimal {
		t.Fatalf("fresh-model solve: %v %v", sol, err)
	}
	if r := m.AddRow([]Coef{{-1, 1}}, LE, 0); r != -1 || !errors.Is(m.Err(), ErrBadVar) {
		t.Fatal("negative index not latched")
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows exercise the evictArtificials redundant-row
	// path.
	m := NewModel(2)
	m.SetObj(0, 1)
	m.SetObj(1, 1)
	m.AddRow([]Coef{{0, 1}, {1, 1}}, EQ, 4)
	m.AddRow([]Coef{{0, 1}, {1, 1}}, EQ, 4)
	m.AddRow([]Coef{{0, 2}, {1, 2}}, EQ, 8)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-8 {
		t.Fatalf("status %v obj %v", sol.Status, sol.Objective)
	}
}

func TestNegativeRHSRows(t *testing.T) {
	// -x <= -3  (i.e. x >= 3), minimize x.
	m := NewModel(1)
	m.SetObj(0, 1)
	m.AddRow([]Coef{{0, -1}}, LE, -3)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.X[0]-3) > 1e-8 {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestFullySubstitutedRowChecks(t *testing.T) {
	// Every variable fixed: rows degenerate to constants; infeasible ones
	// must be caught.
	m := NewModel(1)
	m.SetBounds(0, 2, 2)
	m.AddRow([]Coef{{0, 1}}, EQ, 5) // 2 == 5: impossible
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v", sol.Status)
	}
	ok := NewModel(1)
	ok.SetBounds(0, 2, 2)
	ok.AddRow([]Coef{{0, 1}}, LE, 5)
	sol2, err := ok.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != Optimal || sol2.X[0] != 2 {
		t.Fatalf("status %v x %v", sol2.Status, sol2.X)
	}
}
