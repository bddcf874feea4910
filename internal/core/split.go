package core

import (
	"fmt"
	"math"

	"microfab/internal/app"
	"microfab/internal/platform"
)

// SplitMapping is the paper's future-work extension: the instances of one
// task may be processed by several machines, dividing its workload.
// share[i][u] is the fraction of task i's processed products handled by
// machine u; each task's shares sum to 1.
//
// With blended failure rates the product count generalizes to
//
//	x[i] = demand / Σ_u share[i][u]·(1 − f[i][u])
//
// and machine u's period accumulates share[i][u]·x[i]·w[i][u].
type SplitMapping struct {
	share [][]float64
}

// NewSplitMapping returns an all-zero split mapping for n tasks over m
// machines.
func NewSplitMapping(n, m int) *SplitMapping {
	s := &SplitMapping{share: make([][]float64, n)}
	for i := range s.share {
		s.share[i] = make([]float64, m)
	}
	return s
}

// FromMapping lifts an integral mapping into the split representation.
func (m *Mapping) Split(numMachines int) *SplitMapping {
	s := NewSplitMapping(len(m.a), numMachines)
	for i, u := range m.a {
		if u != platform.NoMachine {
			s.share[i][u] = 1
		}
	}
	return s
}

// SetShare sets share[i][u].
func (s *SplitMapping) SetShare(i app.TaskID, u platform.MachineID, v float64) {
	s.share[i][u] = v
}

// Share returns share[i][u].
func (s *SplitMapping) Share(i app.TaskID, u platform.MachineID) float64 { return s.share[i][u] }

// Validate checks that every task's shares are nonnegative and sum to 1
// (within tol), and under the Specialized rule that no machine carries
// positive shares of two types.
func (s *SplitMapping) Validate(a *app.Application, rule Rule) error {
	const tol = 1e-9
	for i, row := range s.share {
		sum := 0.0
		for u, v := range row {
			if v < -tol {
				return fmt.Errorf("core: negative share %v for task %d on machine %d", v, i, u)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("core: task %d shares sum to %v, want 1", i, sum)
		}
	}
	if rule == Specialized {
		m := len(s.share[0])
		spec := make([]app.TypeID, m)
		for u := range spec {
			spec[u] = -1
		}
		for i, row := range s.share {
			ty := a.Type(app.TaskID(i))
			for u, v := range row {
				if v <= tol {
					continue
				}
				if spec[u] >= 0 && spec[u] != ty {
					return fmt.Errorf("core: machine %d carries shares of types %d and %d", u, spec[u], ty)
				}
				spec[u] = ty
			}
		}
	}
	return nil
}

// EvaluateSplit computes the period of a split mapping over the instance's
// in-tree.
func EvaluateSplit(in *Instance, s *SplitMapping) (*Evaluation, error) {
	n, m := in.N(), in.M()
	if len(s.share) != n || (n > 0 && len(s.share[0]) != m) {
		cols := 0
		if len(s.share) > 0 {
			cols = len(s.share[0])
		}
		return nil, fmt.Errorf("core: split mapping is %dx%d, instance is %dx%d", len(s.share), cols, n, m)
	}
	x := make([]float64, n)
	for _, i := range in.App.ReverseTopological() {
		demand := 1.0
		if succ := in.App.Successor(i); succ != app.NoTask {
			demand = x[succ]
		}
		surv := 0.0
		for u := 0; u < m; u++ {
			surv += float64(s.share[i][u] * in.Failures.Survival(i, platform.MachineID(u)))
		}
		if surv <= 0 {
			return nil, fmt.Errorf("core: task T%d has no productive share", int(i)+1)
		}
		x[i] = demand / surv
	}
	periods := make([]float64, m)
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		for u := 0; u < m; u++ {
			if s.share[i][u] == 0 {
				continue
			}
			periods[u] += float64(s.share[i][u] * x[i] * in.Platform.Time(id, platform.MachineID(u)))
		}
	}
	ev := &Evaluation{MachinePeriods: periods, ProductCounts: x, Critical: platform.NoMachine}
	for u, p := range periods {
		if p > ev.Period {
			ev.Period = p
			ev.Critical = platform.MachineID(u)
		}
	}
	if ev.Period > 0 {
		ev.Throughput = 1 / ev.Period
	}
	return ev, nil
}
