package core

import (
	"fmt"
	"math"

	"microfab/internal/app"
	"microfab/internal/platform"
)

// Pricer is the pricing-only sibling of Evaluator, built for the one
// mutation pattern the exact branch and bound actually performs: root-first
// assignment with strict LIFO backtracking. Where Evaluator carries the
// machinery every consumer might need — compensated per-machine sums, the
// exact-zero reset, a lazily-flushed tournament tree for the maximum, and
// the in-tree prefix walks that let tasks be (un)assigned in any order — a
// Pricer keeps only a flat per-machine load array and a running maximum,
// both maintained by saving the previous value at Assign time and restoring
// it bit-exactly at Unassign time. Two consequences:
//
//   - every load (and the maximum) is a *pure function of the current
//     partial assignment*: the restore puts the exact prior bits back, so a
//     node reached by descending and a node reached by replaying its prefix
//     price identically. This is the property that makes the parallel root
//     split of internal/exact byte-identical for any worker count, and it is
//     the one thing the ledger-backed Evaluator cannot offer (a compensated
//     sum's last ulp depends on its charge/discharge history). Evaluate
//     sums in App.ReverseTopological() order, the exact search's, so a
//     Pricer that assigned a complete mapping in that order holds exactly
//     Evaluate's loads and period;
//   - Assign and Unassign are branch-free O(1): one multiply-add, two saves,
//     no ledger, no dirty list, no tree. The maximum is read in O(1) at any
//     node (Max), against the Evaluator's O(log m)-amortized flush.
//
// The price of the leanness is a usage discipline, checked where cheap and
// documented where not:
//
//   - root-first: Assign(i, u) requires i's successor to be assigned
//     already (or i to be the root), so that x[i] is final the moment i is
//     placed — exactly the reverse-topological order every solver in this
//     repository walks;
//   - LIFO: Unassign must undo the most recent not-yet-undone Assign of its
//     machine. Unassigning in exact reverse assignment order (a search
//     stack's natural pop order) always satisfies this. Violating it leaves
//     the restored load stale; the differential corpus in pricer_test.go
//     and the exact solver's cross-checks gate the discipline.
//
// A Pricer is not safe for concurrent use; give each goroutine its own
// (Clone, or a fresh NewPricer replayed with the worker's prefix).
type Pricer struct {
	in *Instance
	m  int

	assign []platform.MachineID
	x      []float64 // x[i] when assigned, 0 otherwise

	load      []float64 // per-machine load, pure function of the assignment
	savedLoad []float64 // load[a(i)] just before i's contribution
	savedMax  []float64 // the running maximum just before i's assignment
	max       float64

	// infl and tim cache F(i,u) = 1/(1-f[i][u]) and w[i][u] row-major,
	// shared with every engine over the instance: the failure matrix
	// recomputes the division on every Inflation call, which a hot loop
	// paying one per node can feel. Cached bits are identical to the
	// recomputed ones, so pricing is unchanged.
	infl []float64
	tim  []float64

	nAssigned int
}

// NewPricer returns a Pricer over the instance with every task unassigned.
func NewPricer(in *Instance) *Pricer {
	n, m := in.N(), in.M()
	infl, tim := in.tables()
	p := &Pricer{
		in:        in,
		m:         m,
		assign:    make([]platform.MachineID, n),
		x:         make([]float64, n),
		load:      make([]float64, m),
		savedLoad: make([]float64, n),
		savedMax:  make([]float64, n),
		infl:      infl,
		tim:       tim,
	}
	for i := range p.assign {
		p.assign[i] = platform.NoMachine
	}
	return p
}

// InflationTable returns F(i,u) = 1/(1-f[i][u]) for every couple, row-major
// (index i·m + u) — the cached form hot search loops read instead of
// re-dividing per call. The cached bits are exactly Failures.Inflation's.
// The slice is shared by every engine over the instance and must not be
// modified.
func InflationTable(in *Instance) []float64 {
	infl, _ := in.tables()
	return infl
}

// TimeTable returns w[i][u] for every couple, row-major (index i·m + u) —
// the structure-of-arrays form of Platform.Time the batch kernels walk.
// The slice is shared by every engine over the instance and must not be
// modified.
func TimeTable(in *Instance) []float64 {
	_, tim := in.tables()
	return tim
}

// Clone returns an independent Pricer with the same assignment path state.
// Mutating either copy never affects the other (the underlying Instance is
// immutable and stays shared).
func (p *Pricer) Clone() *Pricer {
	return &Pricer{
		in:        p.in,
		m:         p.m,
		assign:    append([]platform.MachineID(nil), p.assign...),
		x:         append([]float64(nil), p.x...),
		load:      append([]float64(nil), p.load...),
		savedLoad: append([]float64(nil), p.savedLoad...),
		savedMax:  append([]float64(nil), p.savedMax...),
		max:       p.max,
		infl:      p.infl, // read-only, shared
		tim:       p.tim,  // read-only, shared
		nAssigned: p.nAssigned,
	}
}

// Rebind repoints the Pricer at another instance of the same (n, m) shape
// and resets every task to unassigned, reusing all allocated state. It
// reports false — receiver untouched — when the shapes differ. Rebinding
// is what lets the serving layer keep per-(n, m) sync.Pools of Pricers:
// a pooled engine serves a stream of distinct same-shape instances without
// a single steady-state allocation.
func (p *Pricer) Rebind(in *Instance) bool {
	if in.N() != len(p.assign) || in.M() != p.m {
		return false
	}
	p.in = in
	p.infl, p.tim = in.tables()
	p.Reset()
	return true
}

// M returns the number of machines covered.
func (p *Pricer) M() int { return p.m }

// Reset returns the Pricer to the all-unassigned state.
func (p *Pricer) Reset() {
	for i := range p.assign {
		p.assign[i] = platform.NoMachine
		p.x[i] = 0
	}
	for u := range p.load {
		p.load[u] = 0
	}
	p.max = 0
	p.nAssigned = 0
}

// Len returns the number of tasks covered.
func (p *Pricer) Len() int { return len(p.assign) }

// Complete reports whether every task is assigned.
func (p *Pricer) Complete() bool { return p.nAssigned == len(p.assign) }

// Machine returns a(i), or platform.NoMachine when unassigned.
func (p *Pricer) Machine(i app.TaskID) platform.MachineID { return p.assign[i] }

// X returns the product count of task i (0 when unassigned). Under the
// root-first discipline an assigned task's x is always final, matching
// PartialProductCounts on the snapshot mapping.
func (p *Pricer) X(i app.TaskID) float64 { return p.x[i] }

// Load returns the current load of machine u.
func (p *Pricer) Load(u platform.MachineID) float64 { return p.load[u] }

// Max returns the current maximum machine load in O(1).
func (p *Pricer) Max() float64 { return p.max }

// Best returns the maximum machine load and the smallest machine attaining
// it (platform.NoMachine while every load is zero), matching Evaluator's
// tie-break. Unlike Max it scans the machines: callers inside a hot loop
// that only need the value should read Max.
func (p *Pricer) Best() (float64, platform.MachineID) {
	if p.max <= 0 {
		return 0, platform.NoMachine
	}
	for u, l := range p.load {
		if l == p.max {
			return p.max, platform.MachineID(u)
		}
	}
	return p.max, platform.NoMachine
}

// Demand returns the product count required downstream of task i —
// x[succ(i)], or 1 at the root — and whether it is known (the successor is
// assigned). Matches Evaluator.Demand.
func (p *Pricer) Demand(i app.TaskID) (float64, bool) {
	s := p.in.App.Successor(i)
	if s == app.NoTask {
		return 1, true
	}
	if p.assign[s] == platform.NoMachine {
		return 0, false
	}
	return p.x[s], true
}

// PriceAll writes, for every machine u, the load u would reach if it also
// carried task i — one pass over the structure-of-arrays rows instead of m
// Trial calls. out must have length M. It returns false (out untouched)
// when i's downstream demand is unknown. Each out[u] is bit-equal to the
// corresponding scalar Trial(i, u), the test oracle in export_test.go.
func (p *Pricer) PriceAll(i app.TaskID, out []float64) bool {
	d, ok := p.Demand(i)
	if !ok {
		return false
	}
	p.PriceAllAt(i, d, out)
	return true
}

// PriceAllAt is PriceAll with an explicit downstream demand d, for callers
// (the exact solver's bound) that price hypothetical demands rather than
// the current one: out[u] = load[u] + (d·F(i,u))·w[i][u], the exact
// floating-point expression of Trial and Assign. The float64 conversion
// rounds the product before the add, so no target fuses the two into one
// multiply-add and the cell bits match Assign's on every architecture.
// A 4-wide manual unroll of this loop was tried and measured slower than
// the range form (BenchmarkPriceAll m16: ~14 ns/op scalar vs ~16 unrolled):
// ranging over inflRow already proves the bounds of every same-length row,
// so the unroll only added code.
func (p *Pricer) PriceAllAt(i app.TaskID, d float64, out []float64) {
	base := int(i) * p.m
	inflRow := p.infl[base : base+p.m]
	timRow := p.tim[base : base+p.m]
	load := p.load[:p.m]
	out = out[:p.m]
	for u, f := range inflRow {
		out[u] = load[u] + float64((d*f)*timRow[u])
	}
}

// MinLandingAt returns the cheapest landing of task i at downstream demand
// d over the machines a penalty row admits, and the machine attaining it:
// the strict-< first-of-equals minimum of
//
//	load[u] + (d·F(i,u))·w[i][u] + pen[u]
//
// with pen[u] ∈ {0, +Inf} marking u infeasible, or (+Inf, -1) when no
// machine is admitted. Adding 0 is exact, so the value and the argmin are
// bit-equal to a PriceAllAt row followed by a strict-< scan over the
// pen[u] == 0 cells — the exact solver's lower bound fuses the two into
// this one pass. pen must have length M.
func (p *Pricer) MinLandingAt(i app.TaskID, d float64, pen []float64) (float64, int) {
	base := int(i) * p.m
	inflRow := p.infl[base : base+p.m]
	timRow := p.tim[base : base+p.m]
	load := p.load[:p.m]
	pen = pen[:p.m]
	// Every cell is +0, positive or +Inf (loads, demands, inflations and
	// times are non-negative), and on such values the IEEE order is the
	// order of the bit patterns as unsigned integers. Comparing the bits
	// lets the compiler select with conditional moves instead of a
	// data-dependent branch; the result is the float comparison's.
	best, at := math.Float64bits(math.Inf(1)), -1
	for u, f := range inflRow {
		if v := math.Float64bits(load[u] + float64((d*f)*timRow[u]) + pen[u]); v < best {
			best, at = v, u
		}
	}
	return math.Float64frombits(best), at
}

// LandingOn returns one cell of MinLandingAt's minimum: the load machine u
// would reach if it also carried task i at downstream demand d, plus
// pen[u]. It is the same expression, term for term, so MinLandingAt's
// value is at most LandingOn(i, d, pen, u) for every u, with equality at
// its argmin. The exact solver's bound prices a task on the machine that
// won its last landing scan first, and skips the scan when that one cell
// cannot prune.
func (p *Pricer) LandingOn(i app.TaskID, d float64, pen []float64, u int) float64 {
	c := int(i)*p.m + u
	return p.load[u] + float64((d*p.infl[c])*p.tim[c]) + pen[u]
}

// Assign sets a(i) = u, pricing exactly task i (its feeders are unassigned
// under the root-first discipline) and saving the touched machine's load
// and the running maximum for the bit-exact restore in Unassign. It errors
// when i or u is out of range, when i is already assigned (the Pricer has
// no move semantics — Unassign first), or when i's successor is unassigned
// (root-first violation: x[i] would not be final).
func (p *Pricer) Assign(i app.TaskID, u platform.MachineID) error {
	if int(i) < 0 || int(i) >= len(p.assign) {
		return fmt.Errorf("core: task %d out of range [0,%d)", int(i), len(p.assign))
	}
	if int(u) < 0 || int(u) >= len(p.load) {
		return fmt.Errorf("core: machine %d out of range [0,%d)", int(u), len(p.load))
	}
	if p.assign[i] != platform.NoMachine {
		return fmt.Errorf("core: pricer: task %d already assigned (LIFO discipline: Unassign first)", int(i))
	}
	d := 1.0
	if s := p.in.App.Successor(i); s != app.NoTask {
		if p.assign[s] == platform.NoMachine {
			return fmt.Errorf("core: pricer: task %d assigned before its successor %d (root-first discipline)", int(i), int(s))
		}
		d = p.x[s]
	}
	xi := d * p.infl[int(i)*p.m+int(u)]
	p.savedLoad[i] = p.load[u]
	p.savedMax[i] = p.max
	nl := p.load[u] + float64(xi*p.tim[int(i)*p.m+int(u)])
	p.load[u] = nl
	if nl > p.max {
		p.max = nl
	}
	p.x[i] = xi
	p.assign[i] = u
	p.nAssigned++
	return nil
}

// Unassign clears task i's machine, restoring its machine's load and the
// running maximum to the exact bits they held before i's Assign. A no-op
// when i is already unassigned. i must be the most recent not-yet-undone
// Assign (see the LIFO discipline above).
func (p *Pricer) Unassign(i app.TaskID) {
	if int(i) < 0 || int(i) >= len(p.assign) {
		return
	}
	u := p.assign[i]
	if u == platform.NoMachine {
		return
	}
	p.load[u] = p.savedLoad[i]
	p.max = p.savedMax[i]
	p.x[i] = 0
	p.assign[i] = platform.NoMachine
	p.nAssigned--
}

// Mapping returns an independent snapshot of the current allocation.
func (p *Pricer) Mapping() *Mapping { return FromSlice(p.assign) }
