package core

import (
	"errors"
	"fmt"
	"math"

	"microfab/internal/app"
	"microfab/internal/platform"
)

// ErrIncompleteMapping tags evaluation failures caused by unassigned tasks,
// as opposed to genuine model errors (wrong mapping size, machine out of
// range). Callers distinguish the two with errors.Is; Period collapses both
// to +Inf for greedy comparisons, PeriodE surfaces them.
var ErrIncompleteMapping = errors.New("mapping is incomplete")

// ProductCounts computes x[i] for every task under the given complete
// mapping: the average number of products task Ti must start processing so
// that one finished product leaves the system.
//
// Recurrence (paper §4.1): for the root, x = F(root); otherwise
// x[i] = F(i) * x[succ(i)], with F(i) = 1/(1 - f[i][a(i)]). A join consumes
// one product from each predecessor per output, so the same recurrence holds
// on every branch of the in-tree.
//
// An unassigned task yields an error wrapping ErrIncompleteMapping; a
// mapping of the wrong size or referencing an unknown machine yields a
// plain (genuine) error.
func ProductCounts(in *Instance, m *Mapping) ([]float64, error) {
	x, _, err := price(in, m)
	return x, err
}

// price computes the product counts and the per-machine loads of a
// complete mapping in one root-first walk in App.ReverseTopological()
// order, adding x[i]·w[i][a(i)] to its machine the moment x[i] is known.
// That is the order and the expression of a Pricer assigning the same
// mapping root-first, so every load, and hence the period, has the
// Pricer's bits: the period the exact search proves is the period
// Evaluate reports. The float64 conversion rounds the product before the
// add, so no target fuses the two into one multiply-add.
func price(in *Instance, m *Mapping) (x, loads []float64, err error) {
	n := in.N()
	if m.Len() != n {
		return nil, nil, fmt.Errorf("core: mapping covers %d tasks, instance has %d", m.Len(), n)
	}
	x = make([]float64, n)
	loads = make([]float64, in.M())
	topo := in.App.Topological()
	for k := len(topo) - 1; k >= 0; k-- { // root first
		i := topo[k]
		u := m.Machine(i)
		if u == platform.NoMachine {
			return nil, nil, fmt.Errorf("core: task T%d is unassigned: %w", int(i)+1, ErrIncompleteMapping)
		}
		if int(u) < 0 || int(u) >= in.M() {
			return nil, nil, fmt.Errorf("core: task T%d mapped to machine %d, platform has %d", int(i)+1, int(u), in.M())
		}
		demand := 1.0 // virtual successor of the root wants one product
		if s := in.App.Successor(i); s != app.NoTask {
			demand = x[s]
		}
		x[i] = in.Failures.Inflation(i, u) * demand
		loads[u] += float64(x[i] * in.Platform.Time(i, u))
	}
	return x, loads, nil
}

// PartialProductCounts computes x[i] for the assigned suffix of a mapping
// built root-first (as all the paper's heuristics do). Unassigned tasks get
// x = 0. A task is only given a count if its successor chain down to the
// root is fully assigned; heuristics assign in reverse topological order so
// this always holds for the tasks they have placed.
func PartialProductCounts(in *Instance, m *Mapping) []float64 {
	n := in.N()
	x := make([]float64, n)
	for _, i := range in.App.ReverseTopological() {
		u := m.Machine(i)
		if u == platform.NoMachine {
			continue
		}
		demand := 1.0
		if s := in.App.Successor(i); s != app.NoTask {
			if m.Machine(s) == platform.NoMachine {
				continue // successor not placed yet; cannot price this task
			}
			demand = x[s]
		}
		x[i] = in.Failures.Inflation(i, u) * demand
	}
	return x
}

// MachinePeriods returns period(Mu) for every machine: the time machine u
// spends to push one finished product out of the system,
// period(Mu) = sum over tasks i on u of x[i] * w[i][u]   (paper eq. (1)),
// summed root-first (see price).
func MachinePeriods(in *Instance, m *Mapping) ([]float64, error) {
	_, periods, err := price(in, m)
	return periods, err
}

// Evaluation is the full objective breakdown of a mapping.
type Evaluation struct {
	// Period is max_u period(Mu) in ms; the inverse of the throughput.
	Period float64
	// Throughput is finished products per ms (1/Period).
	Throughput float64
	// Critical is the machine attaining Period.
	Critical platform.MachineID
	// MachinePeriods holds period(Mu) for every machine (0 if idle).
	MachinePeriods []float64
	// ProductCounts holds x[i] for every task.
	ProductCounts []float64
}

// Evaluate computes the period of a complete mapping. It does not check the
// mapping rule; use Mapping.CheckRule for that.
func Evaluate(in *Instance, m *Mapping) (*Evaluation, error) {
	x, periods, err := price(in, m)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{
		Period:         0,
		Critical:       platform.NoMachine,
		MachinePeriods: periods,
		ProductCounts:  x,
	}
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

// Period is a convenience wrapper returning only the period (+Inf on any
// evaluation failure, so greedy searches can compare candidates safely).
// It cannot distinguish an incomplete mapping from a genuine evaluation
// error; callers that must react differently use PeriodE.
func Period(in *Instance, m *Mapping) float64 {
	p, err := PeriodE(in, m)
	if err != nil {
		return math.Inf(1)
	}
	return p
}

// PeriodE returns the period of a mapping, or the evaluation error:
// errors.Is(err, ErrIncompleteMapping) identifies the (often benign)
// unassigned-task case, any other error is a genuine model violation that
// callers should propagate rather than swallow as +Inf.
func PeriodE(in *Instance, m *Mapping) (float64, error) {
	ev, err := Evaluate(in, m)
	if err != nil {
		return math.Inf(1), err
	}
	return ev.Period, nil
}

// InputPlan describes how many raw products each source task must receive
// to expect xout finished products (paper §2: "we can compute the number of
// products needed as input of the system and guarantee the output").
type InputPlan struct {
	// PerSource[k] is the expected raw-product count for source k (same
	// order as app.Sources()).
	PerSource []float64
	// Total sums PerSource.
	Total float64
}

// PlanInputs returns the expected number of raw products to feed each source
// so that xout products leave the system on average.
func PlanInputs(in *Instance, m *Mapping, xout float64) (*InputPlan, error) {
	if xout <= 0 {
		return nil, fmt.Errorf("core: xout must be positive, got %v", xout)
	}
	x, err := ProductCounts(in, m)
	if err != nil {
		return nil, err
	}
	srcs := in.App.Sources()
	plan := &InputPlan{PerSource: make([]float64, len(srcs))}
	for k, s := range srcs {
		plan.PerSource[k] = xout * x[s]
		plan.Total += plan.PerSource[k]
	}
	return plan, nil
}

// LowerBoundPeriod returns a simple valid lower bound on the optimal period
// for any rule: every task must run somewhere at least once per output with
// its most favourable machine, and total work must fit on m machines.
//
// bound = max( max_i min_u x̲[i]·w[i][u] ,  (Σ_i min_u x̲[i]·w[i][u]) / m )
//
// where x̲[i] is the optimistic product count computed with each stage's
// best (lowest) failure rate along the path to the root.
func LowerBoundPeriod(in *Instance) float64 {
	n := in.N()
	// Optimistic x: use min_u f[j][u] on every stage below i.
	xmin := make([]float64, n)
	for _, i := range in.App.ReverseTopological() {
		demand := 1.0
		if s := in.App.Successor(i); s != app.NoTask {
			demand = xmin[s]
		}
		xmin[i] = demand / (1 - in.Failures.BestRate(i))
	}
	var total, worstSingle float64
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		best := math.Inf(1)
		for u := 0; u < in.M(); u++ {
			c := xmin[i] * in.Platform.Time(id, platform.MachineID(u))
			if c < best {
				best = c
			}
		}
		total += best
		if best > worstSingle {
			worstSingle = best
		}
	}
	avg := total / float64(in.M())
	if worstSingle > avg {
		return worstSingle
	}
	return avg
}
