package core

import (
	"fmt"
	"math"

	"microfab/internal/app"
	"microfab/internal/platform"
)

// SplitEvaluator is the incremental counterpart of EvaluateSplit: a
// stateful engine over a *complete* split mapping (every task's shares sum
// to 1) that reprices a share change without re-walking the full n×m share
// matrix.
//
// The fractional model (see SplitMapping): with blended failure rates the
// product count of task i is
//
//	x[i] = x[succ(i)] / Σ_u share[i][u]·(1 − f[i][u])
//
// and machine u accumulates share[i][u]·x[i]·w[i][u]. Changing task i's
// share row therefore changes x[i] and, through the demand chain, the
// x-value of every task feeding i transitively — exactly the in-tree
// prefix the integral Evaluator reprices on Assign. SetShares walks that
// prefix only: per repriced task the cost is its number of positive
// shares, against the full O(n·m) sweep EvaluateSplit pays per call.
//
// Per-machine sums and the lazy maximum live in the same loadLedger as the
// integral Evaluator (Neumaier compensation, exact empty reset, lazy
// tournament-tree max), so long SetShares sequences stay within 1e-12
// relative of a from-scratch EvaluateSplit (enforced by the differential
// and fuzz harnesses in splitevaluator_test.go / fuzz_test.go).
//
// A SplitEvaluator is not safe for concurrent use; give each goroutine its
// own.
type SplitEvaluator struct {
	in *Instance

	share [][]float64            // current shares, n×m (owned)
	nz    [][]platform.MachineID // machines with share[i][u] > 0, per task
	surv  []float64              // blended survival Σ_u share·(1−f) per task
	x     []float64              // product counts under the current shares

	led loadLedger

	stack []app.TaskID // scratch for the prefix walks
}

// NewSplitEvaluator returns an engine loaded with the given complete split
// mapping. The mapping must cover exactly the instance's tasks and give
// every task a positive blended survival; share rows are copied.
func NewSplitEvaluator(in *Instance, s *SplitMapping) (*SplitEvaluator, error) {
	n, m := in.N(), in.M()
	if len(s.share) != n || (n > 0 && len(s.share[0]) != m) {
		cols := 0
		if len(s.share) > 0 {
			cols = len(s.share[0])
		}
		return nil, fmt.Errorf("core: split mapping is %dx%d, instance is %dx%d", len(s.share), cols, n, m)
	}
	e := &SplitEvaluator{
		in:    in,
		share: make([][]float64, n),
		nz:    make([][]platform.MachineID, n),
		surv:  make([]float64, n),
		x:     make([]float64, n),
		led:   newLoadLedger(m),
	}
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		row := append([]float64(nil), s.share[i]...)
		if err := e.checkRow(id, row); err != nil {
			return nil, err
		}
		e.share[i] = row
		e.nz[i] = rowNonzero(row)
		e.surv[i] = e.blendedSurvival(id, row)
	}
	// Price root-first so every task's demand is already known.
	for _, i := range in.App.ReverseTopological() {
		e.priceTask(i)
	}
	return e, nil
}

// checkRow validates one candidate share row: correct width, nonnegative
// shares, and a positive blended survival (a task all of whose share lands
// on always-failing machines produces nothing).
func (e *SplitEvaluator) checkRow(i app.TaskID, row []float64) error {
	if len(row) != e.in.M() {
		return fmt.Errorf("core: share row for T%d has %d machines, platform has %d", int(i)+1, len(row), e.in.M())
	}
	sum := 0.0
	for u, v := range row {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: bad share %v for task T%d on machine %d", v, int(i)+1, u)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("core: task T%d shares sum to %v, want 1", int(i)+1, sum)
	}
	if e.blendedSurvival(i, row) <= 0 {
		return fmt.Errorf("core: task T%d has no productive share", int(i)+1)
	}
	return nil
}

// blendedSurvival returns Σ_u row[u]·(1 − f[i][u]), skipping zero shares
// exactly like EvaluateSplit skips them in the period sweep.
func (e *SplitEvaluator) blendedSurvival(i app.TaskID, row []float64) float64 {
	s := 0.0
	for u, v := range row {
		s += float64(v * e.in.Failures.Survival(i, platform.MachineID(u)))
	}
	return s
}

func rowNonzero(row []float64) []platform.MachineID {
	var out []platform.MachineID
	for u, v := range row {
		if v > 0 {
			out = append(out, platform.MachineID(u))
		}
	}
	return out
}

// Len returns the number of tasks covered.
func (e *SplitEvaluator) Len() int { return len(e.share) }

// Share returns the current share[i][u].
func (e *SplitEvaluator) Share(i app.TaskID, u platform.MachineID) float64 {
	return e.share[i][u]
}

// Row returns an independent copy of task i's current share row (e.g. to
// restore it after a rejected trial).
func (e *SplitEvaluator) Row(i app.TaskID) []float64 {
	return append([]float64(nil), e.share[i]...)
}

// X returns the current product count of task i.
func (e *SplitEvaluator) X(i app.TaskID) float64 { return e.x[i] }

// Demand returns the product count required downstream of task i:
// x[succ(i)], or 1 at the root.
func (e *SplitEvaluator) Demand(i app.TaskID) float64 {
	if s := e.in.App.Successor(i); s != app.NoTask {
		return e.x[s]
	}
	return 1
}

// MachinePeriod returns the current period(Mu) of machine u.
func (e *SplitEvaluator) MachinePeriod(u platform.MachineID) float64 {
	return e.led.value(u)
}

// Contribution returns task i's current load on machine u:
// share[i][u]·x[i]·w[i][u] (0 when the share is 0).
func (e *SplitEvaluator) Contribution(i app.TaskID, u platform.MachineID) float64 {
	sh := e.share[i][u]
	if sh == 0 {
		return 0
	}
	return sh * e.x[i] * e.in.Platform.Time(i, u)
}

// Period returns the current maximum machine period.
func (e *SplitEvaluator) Period() float64 { return e.led.max() }

// Best returns the current maximum machine period and the smallest machine
// attaining it (platform.NoMachine on an all-idle platform).
func (e *SplitEvaluator) Best() (float64, platform.MachineID) { return e.led.best() }

// Critical returns the machine attaining Period.
func (e *SplitEvaluator) Critical() platform.MachineID {
	_, u := e.Best()
	return u
}

// SetShares replaces task i's share row and reprices, incrementally, the
// task and its in-tree prefix (every task whose product count depends on
// x[i]). The row is validated first; on error the engine is unchanged.
func (e *SplitEvaluator) SetShares(i app.TaskID, row []float64) error {
	if int(i) < 0 || int(i) >= len(e.share) {
		return fmt.Errorf("core: task %d out of range [0,%d)", int(i), len(e.share))
	}
	if err := e.checkRow(i, row); err != nil {
		return err
	}
	// Remove the stale contributions of i and its prefix, then reprice the
	// same set with the new row. The walk mirrors Evaluator.unpriceSubtree/
	// priceSubtree: predecessors transitively, demand flowing root-first.
	e.unpriceTask(i)
	e.stack = e.stack[:0]
	e.stack = append(e.stack, i)
	for len(e.stack) > 0 {
		t := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		for _, p := range e.in.App.Predecessors(t) {
			e.unpriceTask(p)
			e.stack = append(e.stack, p)
		}
	}
	copy(e.share[i], row)
	e.nz[i] = e.nz[i][:0] // reuse capacity: SetShares stays allocation-light
	for u, v := range e.share[i] {
		if v > 0 {
			e.nz[i] = append(e.nz[i], platform.MachineID(u))
		}
	}
	e.surv[i] = e.blendedSurvival(i, e.share[i])
	e.repriceSubtree(i)
	return nil
}

// repriceSubtree reprices task i and its in-tree prefix, root-first, using
// the current share rows.
func (e *SplitEvaluator) repriceSubtree(i app.TaskID) {
	e.priceTask(i)
	e.stack = e.stack[:0]
	e.stack = append(e.stack, i)
	for len(e.stack) > 0 {
		t := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		for _, p := range e.in.App.Predecessors(t) {
			e.priceTask(p)
			e.stack = append(e.stack, p)
		}
	}
}

// priceTask computes x[i] from its (already priced) successor and adds its
// contributions to the touched machines. The per-machine contribution uses
// the same expression as EvaluateSplit (share·x·w, zero shares skipped).
func (e *SplitEvaluator) priceTask(i app.TaskID) {
	e.x[i] = e.Demand(i) / e.surv[i]
	for _, u := range e.nz[i] {
		e.led.charge(u, e.share[i][u]*e.x[i]*e.in.Platform.Time(i, u))
	}
}

// unpriceTask removes task i's current contributions.
func (e *SplitEvaluator) unpriceTask(i app.TaskID) {
	for _, u := range e.nz[i] {
		e.led.discharge(u, e.share[i][u]*e.x[i]*e.in.Platform.Time(i, u))
	}
}

// Split returns an independent snapshot of the current fractional mapping.
func (e *SplitEvaluator) Split() *SplitMapping {
	out := NewSplitMapping(len(e.share), e.in.M())
	for i := range e.share {
		copy(out.share[i], e.share[i])
	}
	return out
}

// ProductCounts returns a copy of the current x-values.
func (e *SplitEvaluator) ProductCounts() []float64 {
	return append([]float64(nil), e.x...)
}

// MachinePeriods returns a copy of the current per-machine periods.
func (e *SplitEvaluator) MachinePeriods() []float64 { return e.led.values() }

// Evaluation snapshots the incremental state as a full Evaluation,
// matching EvaluateSplit on the snapshot mapping within 1e-12 relative.
func (e *SplitEvaluator) Evaluation() *Evaluation {
	p, crit := e.Best()
	ev := &Evaluation{
		Period:         p,
		Critical:       crit,
		MachinePeriods: e.MachinePeriods(),
		ProductCounts:  e.ProductCounts(),
	}
	if ev.Period > 0 {
		ev.Throughput = 1 / ev.Period
	}
	return ev
}
