package core

import (
	"fmt"
	"slices"

	"microfab/internal/app"
	"microfab/internal/platform"
)

// Evaluator is a stateful incremental evaluation engine for mappings under
// construction. Where Evaluate walks all n tasks and m machines on every
// call, an Evaluator maintains the product counts x[i], the per-machine
// periods and the current maximum period across mutations, so that the
// search loops of the exact solver and the heuristics pay only for what a
// step actually changes:
//
//   - Assign(i, u) reprices exactly the tasks whose x-value depends on i's
//     placement — i itself plus its priced in-tree prefix (the tasks that
//     feed it, transitively). In the root-first order used by every solver
//     in this repository the prefix is empty and Assign is O(log m).
//   - Unassign(i) removes the same set; LIFO push/pop search stacks
//     therefore run in O(depth) per node instead of O(n).
//   - Best reads the maximum machine period from a lazily-maintained
//     tournament tree: mutations only mark machines dirty, a max read
//     flushes each dirty machine in O(log m). Search interiors that never
//     read the maximum pay nothing for it.
//
// Invariants maintained after every operation:
//
//   - a task is *priced* iff it is assigned and its successor chain down to
//     the root is fully assigned; x[i] = F(i,a(i))·x[succ(i)] exactly as in
//     ProductCounts (same multiplication order, hence bit-identical values);
//     unpriced tasks have x = 0, matching PartialProductCounts;
//   - period(Mu) = Σ x[j]·w[j][u] over priced tasks j on u, kept as a
//     Neumaier-compensated running sum so that long Assign/Unassign
//     sequences do not drift from a from-scratch summation (a machine whose
//     last priced task leaves is reset to exactly 0);
//   - Best() = (max_u period(Mu), smallest u attaining it), the same
//     tie-break as Evaluate.
//
// The per-machine sums and the lazy maximum live in a loadLedger, shared
// with SplitEvaluator (the fractional-mapping counterpart).
//
// An Evaluator is not safe for concurrent use; give each goroutine its own.
type Evaluator struct {
	in *Instance

	assign  []platform.MachineID
	priced  []bool
	x       []float64 // x[i] when priced, 0 otherwise
	contrib []float64 // x[i]·w[i][a(i)] when priced, 0 otherwise

	led loadLedger

	nAssigned int

	// scratch for the iterative price/unprice walks.
	stack []app.TaskID

	// TrialMove scratch, allocated on first use (behind a pointer, so the
	// many evaluators that never call TrialMove stay as small as before).
	trial *trialScratch
}

// trialScratch is TrialMove's scratch: the per-task machine overlay
// (trialStays for tasks that stay; int32 halves its footprint), the
// per-machine delta row and the walk's frames.
type trialScratch struct {
	over   []int32
	delta  []float64
	frames []trialFrame
}

// trialFrame is one pending task of a TrialMove walk with its new demand.
type trialFrame struct {
	t      app.TaskID
	demand float64
}

// TrialMove overlay markers: a task that stays on its machine, and a moved
// task an earlier walk already repriced.
const (
	trialStays   int32 = -1
	trialCovered int32 = -2
)

// NewEvaluator returns an Evaluator over the instance with every task
// unassigned.
func NewEvaluator(in *Instance) *Evaluator {
	n, m := in.N(), in.M()
	e := &Evaluator{
		in:      in,
		assign:  make([]platform.MachineID, n),
		priced:  make([]bool, n),
		x:       make([]float64, n),
		contrib: make([]float64, n),
		led:     newLoadLedger(m),
	}
	for i := range e.assign {
		e.assign[i] = platform.NoMachine
	}
	return e
}

// NewEvaluatorFrom returns an Evaluator preloaded with the (possibly
// partial) mapping. The mapping must cover exactly the instance's tasks and
// reference only machines of the platform.
func NewEvaluatorFrom(in *Instance, m *Mapping) (*Evaluator, error) {
	if m.Len() != in.N() {
		return nil, fmt.Errorf("core: mapping covers %d tasks, instance has %d", m.Len(), in.N())
	}
	e := NewEvaluator(in)
	topo := in.App.Topological()
	for k := len(topo) - 1; k >= 0; k-- { // root first
		i := topo[k]
		if u := m.Machine(i); u != platform.NoMachine {
			if err := e.Assign(i, u); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// Clone returns an independent Evaluator with the same instance and the
// same incremental state: assignments, pricing, per-machine sums and the
// lazy maximum. Mutating either copy never affects the other, so a search
// can fan one evaluator out across goroutines by giving each worker its
// own clone (the underlying Instance is immutable and stays shared).
func (e *Evaluator) Clone() *Evaluator {
	return &Evaluator{
		in:        e.in,
		assign:    append([]platform.MachineID(nil), e.assign...),
		priced:    append([]bool(nil), e.priced...),
		x:         append([]float64(nil), e.x...),
		contrib:   append([]float64(nil), e.contrib...),
		led:       e.led.clone(),
		nAssigned: e.nAssigned,
	}
}

// Rebind repoints the Evaluator at another instance of the same (n, m)
// shape and resets every task to unassigned, reusing all allocated state
// (the Pricer.Rebind counterpart backing the serving layer's per-(n, m)
// engine pools). It reports false — receiver untouched — when the shapes
// differ.
func (e *Evaluator) Rebind(in *Instance) bool {
	if in.N() != len(e.assign) || in.M() != len(e.led.period) {
		return false
	}
	e.in = in
	e.Reset()
	return true
}

// M returns the number of machines covered.
func (e *Evaluator) M() int { return len(e.led.period) }

// Reset returns the Evaluator to the all-unassigned state.
func (e *Evaluator) Reset() {
	for i := range e.assign {
		e.assign[i] = platform.NoMachine
		e.priced[i] = false
		e.x[i] = 0
		e.contrib[i] = 0
	}
	e.led.reset()
	e.nAssigned = 0
}

// Len returns the number of tasks covered.
func (e *Evaluator) Len() int { return len(e.assign) }

// Complete reports whether every task is assigned.
func (e *Evaluator) Complete() bool { return e.nAssigned == len(e.assign) }

// Machine returns a(i), or platform.NoMachine when unassigned.
func (e *Evaluator) Machine(i app.TaskID) platform.MachineID { return e.assign[i] }

// X returns the current product count of task i (0 when its successor
// chain to the root is not fully assigned), matching PartialProductCounts.
func (e *Evaluator) X(i app.TaskID) float64 { return e.x[i] }

// MachinePeriod returns the current period(Mu) of machine u.
func (e *Evaluator) MachinePeriod(u platform.MachineID) float64 {
	return e.led.value(u)
}

// Demand returns the product count required downstream of task i —
// x[succ(i)], or 1 at the root — and whether it is currently known (the
// successor is priced).
func (e *Evaluator) Demand(i app.TaskID) (float64, bool) {
	s := e.in.App.Successor(i)
	if s == app.NoTask {
		return 1, true
	}
	if !e.priced[s] {
		return 0, false
	}
	return e.x[s], true
}

// TrialAll writes, for every machine u, the period u would reach if it also
// carried task i — one pass over the instance's structure-of-arrays rows
// and the ledger's per-machine sums instead of m Trial calls, which each
// redo the demand lookup, the inflation division and the time indirection.
// out must have length M. It returns false (out untouched) when i's
// downstream demand is unknown. Each out[u] is bit-equal to the
// corresponding scalar Trial(i, u), the test oracle in export_test.go: the
// cached inflation bits are exactly Failures.Inflation's and the
// multiplication order is identical. The 4-wide unroll is measured, not
// decorative: unlike Pricer.PriceAllAt (whose range loop the compiler
// already bounds-check-eliminates), this loop reads two ledger rows
// besides the tables, and unrolling it wins ~8-10% on BenchmarkTrialAll
// at m=8..16.
func (e *Evaluator) TrialAll(i app.TaskID, out []float64) bool {
	d, ok := e.Demand(i)
	if !ok {
		return false
	}
	m := len(e.led.period)
	base := int(i) * m
	infl, tim := e.in.tables()
	inflRow := infl[base : base+m]
	timRow := tim[base : base+m]
	period := e.led.period[:m]
	comp := e.led.comp[:m]
	row := out[:m]
	u := 0
	for ; u+4 <= m; u += 4 {
		row[u] = (period[u] + comp[u]) + (inflRow[u]*d)*timRow[u]
		row[u+1] = (period[u+1] + comp[u+1]) + (inflRow[u+1]*d)*timRow[u+1]
		row[u+2] = (period[u+2] + comp[u+2]) + (inflRow[u+2]*d)*timRow[u+2]
		row[u+3] = (period[u+3] + comp[u+3]) + (inflRow[u+3]*d)*timRow[u+3]
	}
	for ; u < m; u++ {
		row[u] = (period[u] + comp[u]) + (inflRow[u]*d)*timRow[u]
	}
	return true
}

// TrialMove returns the period the evaluator would reach if every task
// moved[k] sat on machine to[k], without mutating any incremental state —
// the read-only counterpart of applying the move, reading Period and
// reverting, with nothing to revert. The moved tasks' new machines go into
// an overlay; the tasks are then visited root-most first (by
// Application.Depth), and each one no earlier walk covered has its in-tree
// prefix walked once. Every visited task t is repriced as
// F(t,a'(t))·x'(succ t), in priceTask's product order, and the change of
// its contribution is accumulated into a plain per-machine delta row; the
// result is max_u MachinePeriod(u) + delta[u]. No Neumaier step, no
// tournament tree.
//
// The value differs from the ledger's post-move period by rounding only:
// about k·ulp·(largest load) for k visited tasks (see the search package's
// TestTrialMatchesLedger). The mapping must be complete and the moved
// tasks distinct; moved is reordered in place, to is read first.
func (e *Evaluator) TrialMove(moved []app.TaskID, to []platform.MachineID) float64 {
	m := len(e.led.period)
	if e.trial == nil {
		e.trial = &trialScratch{over: make([]int32, len(e.assign)), delta: make([]float64, m)}
		for i := range e.trial.over {
			e.trial.over[i] = trialStays
		}
	}
	over, frames := e.trial.over, e.trial.frames
	for k, t := range moved {
		over[t] = int32(to[k])
	}
	if len(moved) > 1 {
		a := e.in.App
		slices.SortFunc(moved, func(s, t app.TaskID) int { return a.Depth(s) - a.Depth(t) })
	}
	delta := e.trial.delta[:m]
	for u := range delta {
		delta[u] = 0
	}
	infl, tim := e.in.tables()
	for _, t0 := range moved {
		if over[t0] == trialCovered {
			continue // inside the prefix of a root-more moved task
		}
		// No moved task sits on t0's successor chain (it would have covered
		// t0), so t0's demand is unchanged.
		d, _ := e.Demand(t0)
		frames = append(frames[:0], trialFrame{t0, d})
		for len(frames) > 0 {
			f := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			u := e.assign[f.t]
			v := u
			if w := over[f.t]; w != trialStays {
				v = platform.MachineID(w)
				over[f.t] = trialCovered
			}
			k := int(f.t)*m + int(v)
			x := infl[k] * f.demand
			delta[u] -= e.contrib[f.t]
			delta[v] += x * tim[k]
			for _, p := range e.in.App.Predecessors(f.t) {
				frames = append(frames, trialFrame{p, x})
			}
		}
	}
	e.trial.frames = frames
	for _, t := range moved {
		over[t] = trialStays
	}
	best := 0.0
	for u := range delta {
		if p := (e.led.period[u] + e.led.comp[u]) + delta[u]; p > best {
			best = p
		}
	}
	return best
}

// MachinePeriodsInto writes the current per-machine periods into out
// (length M) without allocating — the batch-scan companion of
// MachinePeriods for hot loops that rescan every candidate machine.
func (e *Evaluator) MachinePeriodsInto(out []float64) {
	period := e.led.period
	comp := e.led.comp
	for u := range period {
		out[u] = period[u] + comp[u]
	}
}

// Contribution returns x[i]·w[i][a(i)], task i's current contribution to
// its machine's period (0 when unpriced). Candidate scoring in
// internal/search reads it to subtract a task's own load share in O(1).
func (e *Evaluator) Contribution(i app.TaskID) float64 { return e.contrib[i] }

// Assign sets a(i) = u, repricing the affected prefix of the in-tree and
// the touched machine periods incrementally. Assigning an already-assigned
// task moves it (no explicit Unassign needed).
func (e *Evaluator) Assign(i app.TaskID, u platform.MachineID) error {
	if int(i) < 0 || int(i) >= len(e.assign) {
		return fmt.Errorf("core: task %d out of range [0,%d)", int(i), len(e.assign))
	}
	if int(u) < 0 || int(u) >= len(e.led.period) {
		return fmt.Errorf("core: machine %d out of range [0,%d)", int(u), len(e.led.period))
	}
	if e.assign[i] == u {
		return nil
	}
	if e.priced[i] {
		e.unpriceSubtree(i)
	}
	if e.assign[i] == platform.NoMachine {
		e.nAssigned++
	}
	e.assign[i] = u
	e.priceSubtree(i)
	return nil
}

// Relocate moves the assigned task i to machine v — the local-search
// relocate move as a named kernel. It is Assign plus the check that i is
// indeed assigned (a relocate of an unassigned task is a seed bug, not a
// move), so search engines can state their intent and get the validation.
func (e *Evaluator) Relocate(i app.TaskID, v platform.MachineID) error {
	if int(i) < 0 || int(i) >= len(e.assign) {
		return fmt.Errorf("core: task %d out of range [0,%d)", int(i), len(e.assign))
	}
	if e.assign[i] == platform.NoMachine {
		return fmt.Errorf("core: relocate of unassigned task %d", int(i))
	}
	return e.Assign(i, v)
}

// Swap exchanges the machines of the assigned tasks i and j, repricing the
// affected in-tree region once. The equivalent Assign pair (i to a(j), then
// j to a(i)) walks any shared prefix twice over: when one task feeds the
// other — every swap on a chain — the first Assign unprices and reprices
// the deeper task's whole prefix only for the second Assign to redo it.
// Swap instead unprices the union of the two priced prefixes once, flips
// both assignments, and reprices the union once, which is what makes a
// swap probe cost ~half of two Assign walks on chains (see
// BenchmarkSwapKernel). Swapping a task with itself, or two tasks on the
// same machine, is a no-op.
func (e *Evaluator) Swap(i, j app.TaskID) error {
	if int(i) < 0 || int(i) >= len(e.assign) || int(j) < 0 || int(j) >= len(e.assign) {
		return fmt.Errorf("core: swap (%d, %d) out of range [0,%d)", int(i), int(j), len(e.assign))
	}
	u, v := e.assign[i], e.assign[j]
	if u == platform.NoMachine || v == platform.NoMachine {
		return fmt.Errorf("core: swap needs both tasks assigned (a(%d)=%d, a(%d)=%d)", int(i), int(u), int(j), int(v))
	}
	if i == j || u == v {
		return nil
	}
	// Unprice the union of the two priced prefixes. When one task sits in
	// the other's prefix the first walk already covers it, hence the
	// second guard (unpricing twice would discharge machines twice).
	if e.priced[i] {
		e.unpriceSubtree(i)
	}
	if e.priced[j] {
		e.unpriceSubtree(j)
	}
	e.assign[i], e.assign[j] = v, u
	// Reprice the union. priceSubtree(i) walks every assigned feeder of i,
	// so it reprices j too when j feeds i; the guard keeps the disjoint
	// and j-feeds-i cases from double-pricing.
	e.priceSubtree(i)
	if !e.priced[j] {
		e.priceSubtree(j)
	}
	return nil
}

// Unassign clears task i's machine, unpricing it and its priced prefix. A
// no-op when i is already unassigned.
func (e *Evaluator) Unassign(i app.TaskID) {
	if int(i) < 0 || int(i) >= len(e.assign) || e.assign[i] == platform.NoMachine {
		return
	}
	if e.priced[i] {
		e.unpriceSubtree(i)
	}
	e.assign[i] = platform.NoMachine
	e.nAssigned--
}

// Best returns the current maximum machine period and the smallest machine
// attaining it (platform.NoMachine while no task is priced), matching
// Evaluate's tie-break.
func (e *Evaluator) Best() (float64, platform.MachineID) {
	return e.led.best()
}

// Period returns the current maximum machine period.
func (e *Evaluator) Period() float64 {
	return e.led.max()
}

// Critical returns the machine attaining Period (NoMachine while empty).
func (e *Evaluator) Critical() platform.MachineID {
	_, u := e.Best()
	return u
}

// Mapping returns an independent snapshot of the current allocation.
func (e *Evaluator) Mapping() *Mapping { return FromSlice(e.assign) }

// ProductCounts returns a copy of the current x-values (0 for unpriced
// tasks), matching PartialProductCounts on the snapshot mapping.
func (e *Evaluator) ProductCounts() []float64 {
	return append([]float64(nil), e.x...)
}

// MachinePeriods returns a copy of the current per-machine periods.
func (e *Evaluator) MachinePeriods() []float64 {
	return e.led.values()
}

// Evaluation snapshots the incremental state as a full Evaluation. It
// errors when the mapping is incomplete, matching Evaluate.
func (e *Evaluator) Evaluation() (*Evaluation, error) {
	if !e.Complete() {
		return nil, fmt.Errorf("core: %w", ErrIncompleteMapping)
	}
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
	return ev, nil
}

// --- internal machinery ---------------------------------------------------

// priceSubtree prices task i (if its downstream demand is known) and walks
// up the in-tree pricing every assigned predecessor whose x-value becomes
// computable. Tasks already priced cannot occur below an unpriced i, so the
// walk never re-prices.
func (e *Evaluator) priceSubtree(i app.TaskID) {
	d, ok := e.Demand(i)
	if !ok {
		return
	}
	e.priceTask(i, d)
	e.stack = e.stack[:0]
	e.stack = append(e.stack, i)
	for len(e.stack) > 0 {
		t := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		for _, p := range e.in.App.Predecessors(t) {
			if e.assign[p] == platform.NoMachine {
				continue // p's own prefix stays unpriced too
			}
			e.priceTask(p, e.x[t])
			e.stack = append(e.stack, p)
		}
	}
}

// unpriceSubtree removes task i and every priced task of its in-tree prefix
// from the machine sums. A priced predecessor implies a priced task (the
// pricing invariant), so the walk follows priced tasks only.
func (e *Evaluator) unpriceSubtree(i app.TaskID) {
	e.unpriceTask(i)
	e.stack = e.stack[:0]
	e.stack = append(e.stack, i)
	for len(e.stack) > 0 {
		t := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		for _, p := range e.in.App.Predecessors(t) {
			if !e.priced[p] {
				continue
			}
			e.unpriceTask(p)
			e.stack = append(e.stack, p)
		}
	}
}

func (e *Evaluator) priceTask(i app.TaskID, demand float64) {
	u := e.assign[i]
	xi := e.in.Failures.Inflation(i, u) * demand
	e.priced[i] = true
	e.x[i] = xi
	e.contrib[i] = xi * e.in.Platform.Time(i, u)
	e.led.charge(u, e.contrib[i])
}

func (e *Evaluator) unpriceTask(i app.TaskID) {
	u := e.assign[i]
	e.led.discharge(u, e.contrib[i])
	e.priced[i] = false
	e.x[i] = 0
	e.contrib[i] = 0
}
