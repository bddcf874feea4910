// Package failure models the paper's transient failure model: the product
// being processed by task Ti on machine Mu is lost with probability
// f[i][u] = l[i][u] / b[i][u]. Failures are attached to the (task, machine)
// couple — neither pure machine failures nor pure task failures, although
// both appear as degenerate model classes below.
//
// Failures are transient ([6] in the paper): a loss destroys one product but
// never the machine, so production continues with the next product.
package failure

import (
	"fmt"
	"math"

	"microfab/internal/app"
	"microfab/internal/platform"
)

// Class describes the structure of a failure matrix; the paper's complexity
// results split on it.
type Class int

const (
	// General: f depends on both the task and the machine (this paper).
	General Class = iota
	// TaskOnly: f[i][u] = f[i] (the companion paper [1]; Figure 9 regime).
	TaskOnly
	// MachineOnly: f[i][u] = f[u] (Theorem 2's reduction regime).
	MachineOnly
	// Uniform: one constant rate everywhere.
	Uniform
)

// String names the class.
func (c Class) String() string {
	switch c {
	case General:
		return "general"
	case TaskOnly:
		return "task-only"
	case MachineOnly:
		return "machine-only"
	case Uniform:
		return "uniform"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Matrix is an immutable failure-probability matrix f[i][u] in [0,1).
type Matrix struct {
	f [][]float64
}

// New builds a failure matrix; every entry must lie in [0,1) — a rate of 1
// would make the task impossible and every x[i] infinite.
func New(f [][]float64) (*Matrix, error) {
	if len(f) == 0 || len(f[0]) == 0 {
		return nil, fmt.Errorf("failure: empty matrix")
	}
	m := len(f[0])
	cp := make([][]float64, len(f))
	for i, row := range f {
		if len(row) != m {
			return nil, fmt.Errorf("failure: row %d has %d machines, want %d", i, len(row), m)
		}
		cp[i] = make([]float64, m)
		for u, v := range row {
			if math.IsNaN(v) || v < 0 || v >= 1 {
				return nil, fmt.Errorf("failure: f[%d][%d]=%v must be in [0,1)", i, u, v)
			}
			cp[i][u] = v
		}
	}
	return &Matrix{f: cp}, nil
}

// NewTaskOnly builds a TaskOnly matrix f[i][u] = fi[i] for m machines.
func NewTaskOnly(fi []float64, m int) (*Matrix, error) {
	rows := make([][]float64, len(fi))
	for i, v := range fi {
		row := make([]float64, m)
		for u := range row {
			row[u] = v
		}
		rows[i] = row
	}
	return New(rows)
}

// NewUniform builds an n×m matrix with the single rate f.
func NewUniform(n, m int, f float64) (*Matrix, error) {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, m)
		for u := range row {
			row[u] = f
		}
		rows[i] = row
	}
	return New(rows)
}

// NumTasks returns the number of task rows.
func (mx *Matrix) NumTasks() int { return len(mx.f) }

// NumMachines returns the number of machine columns.
func (mx *Matrix) NumMachines() int { return len(mx.f[0]) }

// Rate returns f[i][u], the probability that task i on machine u loses the
// product it is processing.
func (mx *Matrix) Rate(i app.TaskID, u platform.MachineID) float64 { return mx.f[i][u] }

// Survival returns 1 - f[i][u].
func (mx *Matrix) Survival(i app.TaskID, u platform.MachineID) float64 { return 1 - mx.f[i][u] }

// Inflation returns F(i,u) = 1/(1-f[i][u]): the expected number of attempts
// per successful product (the paper's Fi notation).
func (mx *Matrix) Inflation(i app.TaskID, u platform.MachineID) float64 {
	return 1 / (1 - mx.f[i][u])
}

// Row returns task i's failure rates across machines. Must not be modified.
func (mx *Matrix) Row(i app.TaskID) []float64 { return mx.f[i] }

// WorstRate returns max_u f[i][u] for task i; used to bound x[i] in the MIP
// (the paper's MAXx_i uses the worst machine per stage).
func (mx *Matrix) WorstRate(i app.TaskID) float64 {
	worst := 0.0
	for _, v := range mx.f[i] {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// BestRate returns min_u f[i][u] for task i.
func (mx *Matrix) BestRate(i app.TaskID) float64 {
	best := mx.f[i][0]
	for _, v := range mx.f[i] {
		if v < best {
			best = v
		}
	}
	return best
}

// Classify detects the tightest Class the matrix belongs to.
func (mx *Matrix) Classify() Class {
	taskOnly, machineOnly := true, true
	for i, row := range mx.f {
		for u, v := range row {
			if v != row[0] {
				taskOnly = false
			}
			if v != mx.f[0][u] {
				machineOnly = false
			}
		}
		_ = i
	}
	switch {
	case taskOnly && machineOnly:
		return Uniform
	case taskOnly:
		return TaskOnly
	case machineOnly:
		return MachineOnly
	}
	return General
}
