// Package core implements the paper's central objects: the allocation of
// tasks to machines, the propagation of the average product counts x[i]
// through the application in-tree, the per-machine periods, and the three
// mapping rules (one-to-one, specialized, general).
//
// Everything downstream — heuristics, exact solvers, the MIP and the
// discrete-event simulator — evaluates candidate solutions through this
// package, so its formulas are the single source of truth for the objective.
package core

import (
	"errors"
	"fmt"
	"sync"

	"microfab/internal/app"
	"microfab/internal/failure"
	"microfab/internal/platform"
)

// Rule selects which allocation constraint applies (paper §4.2).
type Rule int

const (
	// OneToOne: a machine executes at most one task.
	OneToOne Rule = iota
	// Specialized: a machine is dedicated to at most one task *type*; it
	// may run several tasks of that type. The realistic rule: machines
	// need no reconfiguration between operations.
	Specialized
	// GeneralRule: no constraint on what a machine may run.
	GeneralRule
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case OneToOne:
		return "one-to-one"
	case Specialized:
		return "specialized"
	case GeneralRule:
		return "general"
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// ParseRule maps a rule name to its Rule: "" or "specialized" (the
// default), "one-to-one" or "oto", and "general".
func ParseRule(name string) (Rule, error) {
	switch name {
	case "", "specialized":
		return Specialized, nil
	case "one-to-one", "oto":
		return OneToOne, nil
	case "general":
		return GeneralRule, nil
	}
	return 0, fmt.Errorf("unknown rule %q (have specialized, one-to-one, general)", name)
}

// Instance bundles the three model ingredients every solver consumes.
//
// It also owns the shared structure-of-arrays tables behind the batch
// pricing kernels (Pricer.PriceAll, Evaluator.TrialAll): row-major copies
// of the inflation factors F(i,u) and the execution times w[i][u], built
// lazily on first use and shared read-only by every engine over the
// instance. The components are immutable after NewInstance, so the cached
// bits can never go stale.
type Instance struct {
	App      *app.Application
	Platform *platform.Platform
	Failures *failure.Matrix

	tablesOnce sync.Once
	infl       []float64 // row-major F(i,u) = 1/(1-f[i][u]), index i·m+u
	tim        []float64 // row-major w[i][u], index i·m+u
}

// tables returns the shared SoA rows (inflation, time), building them on
// first use. The returned slices are read-only.
func (in *Instance) tables() (infl, tim []float64) {
	in.tablesOnce.Do(func() {
		n, m := in.N(), in.M()
		fi := make([]float64, n*m)
		ti := make([]float64, n*m)
		for i := 0; i < n; i++ {
			row := in.Platform.Row(app.TaskID(i))
			for u := 0; u < m; u++ {
				fi[i*m+u] = in.Failures.Inflation(app.TaskID(i), platform.MachineID(u))
				ti[i*m+u] = row[u]
			}
		}
		in.infl, in.tim = fi, ti
	})
	return in.infl, in.tim
}

// NewInstance validates dimension agreement between the three parts and the
// typed-execution-time assumption, and returns the bundle.
func NewInstance(a *app.Application, p *platform.Platform, f *failure.Matrix) (*Instance, error) {
	if a == nil || p == nil || f == nil {
		return nil, errors.New("core: nil instance component")
	}
	if p.NumTasks() != a.NumTasks() {
		return nil, fmt.Errorf("core: platform has %d task rows, application has %d tasks", p.NumTasks(), a.NumTasks())
	}
	if f.NumTasks() != a.NumTasks() {
		return nil, fmt.Errorf("core: failure matrix has %d task rows, application has %d tasks", f.NumTasks(), a.NumTasks())
	}
	if f.NumMachines() != p.NumMachines() {
		return nil, fmt.Errorf("core: failure matrix has %d machines, platform has %d", f.NumMachines(), p.NumMachines())
	}
	if err := p.CheckTypedTimes(a); err != nil {
		return nil, err
	}
	return &Instance{App: a, Platform: p, Failures: f}, nil
}

// N returns the number of tasks.
func (in *Instance) N() int { return in.App.NumTasks() }

// M returns the number of machines.
func (in *Instance) M() int { return in.Platform.NumMachines() }

// P returns the number of task types.
func (in *Instance) P() int { return in.App.NumTypes() }

// Mapping is an allocation function a: tasks -> machines. Unassigned tasks
// hold platform.NoMachine.
type Mapping struct {
	a []platform.MachineID
}

// NewMapping returns a mapping of n tasks, all unassigned.
func NewMapping(n int) *Mapping {
	m := &Mapping{a: make([]platform.MachineID, n)}
	for i := range m.a {
		m.a[i] = platform.NoMachine
	}
	return m
}

// FromSlice wraps an allocation vector (copied).
func FromSlice(a []platform.MachineID) *Mapping {
	cp := make([]platform.MachineID, len(a))
	copy(cp, a)
	return &Mapping{a: cp}
}

// Assign sets a(i) = u.
func (m *Mapping) Assign(i app.TaskID, u platform.MachineID) { m.a[i] = u }

// Unassign clears task i's machine.
func (m *Mapping) Unassign(i app.TaskID) { m.a[i] = platform.NoMachine }

// Machine returns a(i), or platform.NoMachine if unassigned.
func (m *Mapping) Machine(i app.TaskID) platform.MachineID { return m.a[i] }

// Len returns the number of tasks covered.
func (m *Mapping) Len() int { return len(m.a) }

// Complete reports whether every task has a machine.
func (m *Mapping) Complete() bool {
	for _, u := range m.a {
		if u == platform.NoMachine {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (m *Mapping) Clone() *Mapping { return FromSlice(m.a) }

// Slice returns a copy of the allocation vector.
func (m *Mapping) Slice() []platform.MachineID {
	cp := make([]platform.MachineID, len(m.a))
	copy(cp, m.a)
	return cp
}

// TasksOn returns the tasks assigned to machine u, in increasing ID order.
func (m *Mapping) TasksOn(u platform.MachineID) []app.TaskID {
	var out []app.TaskID
	for i, v := range m.a {
		if v == u {
			out = append(out, app.TaskID(i))
		}
	}
	return out
}

// String renders "T1->M3 T2->M1 ...".
func (m *Mapping) String() string {
	s := ""
	for i, u := range m.a {
		if i > 0 {
			s += " "
		}
		if u == platform.NoMachine {
			s += fmt.Sprintf("T%d->?", i+1)
		} else {
			s += fmt.Sprintf("T%d->M%d", i+1, int(u)+1)
		}
	}
	return s
}

// CheckRule verifies that the (complete) mapping respects the rule for the
// given application; it returns a descriptive error on the first violation.
func (m *Mapping) CheckRule(a *app.Application, rule Rule) error {
	switch rule {
	case OneToOne:
		owner := map[platform.MachineID]app.TaskID{}
		for i, u := range m.a {
			if u == platform.NoMachine {
				continue
			}
			if prev, ok := owner[u]; ok {
				return fmt.Errorf("core: one-to-one violated: machine M%d runs both T%d and T%d", int(u)+1, int(prev)+1, i+1)
			}
			owner[u] = app.TaskID(i)
		}
	case Specialized:
		spec := map[platform.MachineID]app.TypeID{}
		for i, u := range m.a {
			if u == platform.NoMachine {
				continue
			}
			ty := a.Type(app.TaskID(i))
			if prev, ok := spec[u]; ok && prev != ty {
				return fmt.Errorf("core: specialization violated: machine M%d runs types %d and %d", int(u)+1, prev, ty)
			}
			spec[u] = ty
		}
	case GeneralRule:
		// no constraint
	default:
		return fmt.Errorf("core: unknown rule %v", rule)
	}
	return nil
}
