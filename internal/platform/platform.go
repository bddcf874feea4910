// Package platform models the target execution platform: a set of machines
// (micro-factory cells) fully interconnected, each able to perform any task
// at a machine- and task-dependent speed.
//
// Communication times are neglected, as in the paper; a non-negligible
// transfer can always be modelled as an extra task on a dedicated machine.
package platform

import (
	"fmt"
	"math"

	"microfab/internal/app"
)

// MachineID identifies a machine; IDs are dense indices in [0, NumMachines).
// The paper's M1..Mm map to 0..m-1.
type MachineID int

// NoMachine marks an unassigned slot in allocation vectors.
const NoMachine MachineID = -1

// Platform is an immutable machine set with per-(task,machine) execution
// times. Times are expressed in milliseconds, matching the paper's plots.
type Platform struct {
	m int
	// w[i][u] is the time for task i on machine u, in ms.
	w     [][]float64
	names []string
}

// New builds a platform from the execution-time matrix w, where w[i][u] is
// the time (ms) for task i on machine u. All rows must have equal length and
// all entries must be positive and finite.
func New(w [][]float64) (*Platform, error) {
	if len(w) == 0 || len(w[0]) == 0 {
		return nil, fmt.Errorf("platform: empty execution-time matrix")
	}
	m := len(w[0])
	cp := make([][]float64, len(w))
	for i, row := range w {
		if len(row) != m {
			return nil, fmt.Errorf("platform: row %d has %d machines, want %d", i, len(row), m)
		}
		cp[i] = make([]float64, m)
		for u, v := range row {
			if !(v > 0) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("platform: w[%d][%d]=%v must be positive and finite", i, u, v)
			}
			cp[i][u] = v
		}
	}
	names := make([]string, m)
	for u := range names {
		names[u] = fmt.Sprintf("M%d", u+1)
	}
	return &Platform{m: m, w: cp, names: names}, nil
}

// NewHomogeneous builds a platform of m machines where every task takes the
// same time w on every machine (the setting of the paper's Theorem 1).
func NewHomogeneous(n, m int, w float64) (*Platform, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("platform: need n>0 tasks and m>0 machines, got n=%d m=%d", n, m)
	}
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, m)
		for u := range row {
			row[u] = w
		}
		rows[i] = row
	}
	return New(rows)
}

// NumMachines returns m.
func (p *Platform) NumMachines() int { return p.m }

// NumTasks returns the number of task rows the platform was built for.
func (p *Platform) NumTasks() int { return len(p.w) }

// Time returns w[i][u], the time (ms) for task i on machine u.
func (p *Platform) Time(i app.TaskID, u MachineID) float64 { return p.w[i][u] }

// Row returns the execution times of task i across machines. The returned
// slice must not be modified.
func (p *Platform) Row(i app.TaskID) []float64 { return p.w[i] }

// SetName gives machine u a human-readable name.
func (p *Platform) SetName(u MachineID, name string) { p.names[u] = name }

// Name returns the machine's name (defaults to "M<u+1>").
func (p *Platform) Name(u MachineID) string { return p.names[u] }

// IsHomogeneous reports whether all entries of w are equal.
func (p *Platform) IsHomogeneous() bool {
	w0 := p.w[0][0]
	for _, row := range p.w {
		for _, v := range row {
			if v != w0 {
				return false
			}
		}
	}
	return true
}

// Heterogeneity returns, for each machine, the standard deviation of its
// column of w. The paper's H3 heuristic sorts machines by this value.
func (p *Platform) Heterogeneity() []float64 {
	n := len(p.w)
	h := make([]float64, p.m)
	for u := 0; u < p.m; u++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += p.w[i][u]
		}
		mean := sum / float64(n)
		var varsum float64
		for i := 0; i < n; i++ {
			d := p.w[i][u] - mean
			varsum += float64(d * d)
		}
		h[u] = math.Sqrt(varsum / float64(n))
	}
	return h
}

// CheckTypedTimes verifies the paper's structural assumption that tasks of
// the same type have the same execution time on every machine:
// t(i)=t(i') => w[i][u]=w[i'][u] for all u.
func (p *Platform) CheckTypedTimes(a *app.Application) error {
	if a.NumTasks() != len(p.w) {
		return fmt.Errorf("platform: %d task rows but application has %d tasks", len(p.w), a.NumTasks())
	}
	rep := make(map[app.TypeID]app.TaskID)
	for i := 0; i < a.NumTasks(); i++ {
		id := app.TaskID(i)
		ty := a.Type(id)
		first, ok := rep[ty]
		if !ok {
			rep[ty] = id
			continue
		}
		for u := 0; u < p.m; u++ {
			if p.w[id][u] != p.w[first][u] {
				return fmt.Errorf("platform: tasks %d and %d share type %d but differ on machine %d (w=%v vs %v)",
					first, id, ty, u, p.w[first][u], p.w[id][u])
			}
		}
	}
	return nil
}
