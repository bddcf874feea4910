// Package lp is a self-contained linear-programming solver: models with
// bounded variables and <=/==/>= rows, solved by a two-phase primal simplex
// (Dantzig pricing with an automatic switch to Bland's rule to break
// degeneracy cycles). The tableau is stored densely, but each pivot updates
// only the pivot row's nonzero columns, and each Model keeps its tableau
// storage across solves. A Model is therefore for sequential use: solve
// concurrently on Clones, which share nothing.
//
// It substitutes for the commercial solver (CPLEX) the paper uses to obtain
// exact optima on small instances; the branch-and-bound layer lives in
// package mip.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadVar is latched by AddRow when a coefficient names a variable index
// outside [0, NumVars); Solve and SolveWithLimit surface it. Inside
// long-lived daemons (mfserve, mfworker) a malformed model must be a
// reported error, not a process kill.
var ErrBadVar = errors.New("lp: variable index out of range")

// Sense is a row relation.
type Sense int

const (
	// LE is ax <= b.
	LE Sense = iota
	// GE is ax >= b.
	GE
	// EQ is ax == b.
	EQ
)

// String renders the relation.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Coef is one nonzero of a row.
type Coef struct {
	Var int
	Val float64
}

// Model is a minimization LP: min c·x subject to rows and variable bounds.
// Build with NewModel, then AddRow/SetObj/SetBounds; Solve leaves the
// model's definition unchanged, so a MIP search can solve many variants of
// one model. Solve does keep scratch storage in the model, so one Model
// must not be solved (or modified) from two goroutines at once.
type Model struct {
	numVars int
	obj     []float64
	lower   []float64
	upper   []float64 // +Inf when unbounded above
	names   []string

	rows   [][]Coef
	senses []Sense
	rhs    []float64

	err error // latched by AddRow, surfaced by Solve
	// ws is the solve scratch, created by the first Solve; never shared.
	ws *workspace
}

// NewModel returns a model with numVars variables, objective 0 and default
// bounds [0, +Inf).
func NewModel(numVars int) *Model {
	m := &Model{
		numVars: numVars,
		obj:     make([]float64, numVars),
		lower:   make([]float64, numVars),
		upper:   make([]float64, numVars),
		names:   make([]string, numVars),
	}
	for i := range m.upper {
		m.upper[i] = math.Inf(1)
	}
	return m
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return m.numVars }

// NumRows returns the number of constraint rows.
func (m *Model) NumRows() int { return len(m.rows) }

// SetObj sets the objective coefficient of variable v.
func (m *Model) SetObj(v int, c float64) { m.obj[v] = c }

// ObjCoef returns the objective coefficient of variable v.
func (m *Model) ObjCoef(v int) float64 { return m.obj[v] }

// SetBounds sets [lo, hi] for variable v (hi may be +Inf).
func (m *Model) SetBounds(v int, lo, hi float64) {
	m.lower[v] = lo
	m.upper[v] = hi
}

// Bounds returns the bounds of variable v.
func (m *Model) Bounds(v int) (lo, hi float64) { return m.lower[v], m.upper[v] }

// SetName labels variable v for diagnostics.
func (m *Model) SetName(v int, name string) { m.names[v] = name }

// Name returns variable v's label (or "x<v>").
func (m *Model) Name(v int) string {
	if m.names[v] != "" {
		return m.names[v]
	}
	return fmt.Sprintf("x%d", v)
}

// AddRow appends a constraint; coefficients on the same variable are summed.
// A coefficient naming a variable outside [0, NumVars) latches ErrBadVar on
// the model (retrievable via Err, reported by Solve) and the row is dropped;
// AddRow then returns -1.
func (m *Model) AddRow(coefs []Coef, sense Sense, rhs float64) int {
	cp := make([]Coef, 0, len(coefs))
	for _, c := range coefs {
		if c.Var < 0 || c.Var >= m.numVars {
			if m.err == nil {
				m.err = fmt.Errorf("%w: %d not in [0,%d) (row %d)", ErrBadVar, c.Var, m.numVars, len(m.rows))
			}
			return -1
		}
		// Rows are short (a handful to a few dozen nonzeros); a linear
		// duplicate scan beats a per-call map allocation.
		dup := false
		for j := range cp {
			if cp[j].Var == c.Var {
				cp[j].Val += c.Val
				dup = true
				break
			}
		}
		if !dup {
			cp = append(cp, c)
		}
	}
	m.rows = append(m.rows, cp)
	m.senses = append(m.senses, sense)
	m.rhs = append(m.rhs, rhs)
	return len(m.rows) - 1
}

// Err returns the model error latched by AddRow, or nil.
func (m *Model) Err() error { return m.err }

// Clone returns a deep copy (bounds may then be tightened independently,
// which is how the MIP branches). The copy gets its own solve scratch, so
// a model and its clones may be solved concurrently.
func (m *Model) Clone() *Model {
	c := &Model{
		numVars: m.numVars,
		obj:     append([]float64(nil), m.obj...),
		lower:   append([]float64(nil), m.lower...),
		upper:   append([]float64(nil), m.upper...),
		names:   append([]string(nil), m.names...),
		senses:  append([]Sense(nil), m.senses...),
		rhs:     append([]float64(nil), m.rhs...),
		err:     m.err,
	}
	c.rows = make([][]Coef, len(m.rows))
	for i, r := range m.rows {
		c.rows[i] = append([]Coef(nil), r...)
	}
	return c
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no solution.
	Infeasible
	// Unbounded: the objective decreases without bound.
	Unbounded
	// IterLimit: the iteration cap was hit before convergence.
	IterLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the variable values in model space (bounds un-shifted).
	X []float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// Value returns X[v].
func (s *Solution) Value(v int) float64 { return s.X[v] }
