package heuristics

import (
	"math/rand"
	"sort"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/platform"
)

// H4wSplit implements the paper's future-work extension: the instances of
// one task may be divided across several machines of its type. It starts
// from the plain H4w mapping and then iteratively rebalances: the task
// contributing most to the critical machine has its workload re-poured
// (water-filling) over every machine that may legally carry its type —
// machines already dedicated to the type plus still-free machines. A
// rebalance is kept only when the re-evaluated period improves, so
// H4wSplit is never worse than H4w.
//
// The refinement loop runs on a core.SplitEvaluator: each water-filling
// probe reprices only the moved task and its in-tree prefix instead of
// re-walking the full n×m share matrix through EvaluateSplit, and a
// rejected probe is undone by restoring the task's previous share row.
// The machine-specialization view the candidate set needs is maintained
// incrementally too (a per-machine count of tasks per type), so one probe
// costs O(prefix + m) instead of the former O(n·m).
func H4wSplit(in *core.Instance, rng *rand.Rand, opts Options) (*core.SplitMapping, error) {
	base, err := H4w(in, rng, opts)
	if err != nil {
		return nil, err
	}
	r, err := newSplitRefiner(in, base)
	if err != nil {
		return nil, err
	}
	const maxRounds = 200
	tried := make(map[app.TaskID]bool)
	for round := 0; round < maxRounds; round++ {
		crit := r.se.Critical()
		if crit == platform.NoMachine {
			break
		}
		task := r.heaviestTaskOn(crit, tried)
		if task == app.NoTask {
			break // nothing left to move on the critical machine
		}
		tried[task] = true
		if r.refineTask(task) {
			tried = make(map[app.TaskID]bool) // improvements reopen all tasks
		}
	}
	return r.se.Split(), nil
}

// splitRefiner drives incremental water-filling refinement over a
// SplitEvaluator, tracking which type every machine is currently
// dedicated to (by positive shares) so candidate sets cost O(m).
type splitRefiner struct {
	in *core.Instance
	se *core.SplitEvaluator
	// typeOn[u][ty] counts tasks of type ty with a positive share on u; a
	// machine is free when its total count is 0 and dedicated to ty when
	// all its counted tasks have that type.
	typeOn [][]int
	onAny  []int // total tasks with positive share per machine
}

func newSplitRefiner(in *core.Instance, base *core.Mapping) (*splitRefiner, error) {
	se, err := core.NewSplitEvaluator(in, base.Split(in.M()))
	if err != nil {
		return nil, err
	}
	r := &splitRefiner{
		in:     in,
		se:     se,
		typeOn: make([][]int, in.M()),
		onAny:  make([]int, in.M()),
	}
	for u := range r.typeOn {
		r.typeOn[u] = make([]int, in.P())
	}
	for i := 0; i < in.N(); i++ {
		r.countShares(app.TaskID(i), +1)
	}
	return r, nil
}

// countShares adds delta to the specialization counters for every machine
// holding a positive share of task i.
func (r *splitRefiner) countShares(i app.TaskID, delta int) {
	ty := r.in.App.Type(i)
	for u := 0; u < r.in.M(); u++ {
		if r.se.Share(i, platform.MachineID(u)) > 0 {
			r.typeOn[u][ty] += delta
			r.onAny[u] += delta
		}
	}
}

// heaviestTaskOn returns the untried task with the largest load
// contribution share·x·w on machine u, or NoTask.
func (r *splitRefiner) heaviestTaskOn(u platform.MachineID, tried map[app.TaskID]bool) app.TaskID {
	best := app.NoTask
	bestLoad := 0.0
	for i := 0; i < r.in.N(); i++ {
		id := app.TaskID(i)
		if tried[id] {
			continue
		}
		if l := r.se.Contribution(id, u); l > bestLoad {
			bestLoad = l
			best = id
		}
	}
	return best
}

// refineTask water-fills task i's workload over every machine legally able
// to carry its type and keeps the move only when the period strictly
// improves. Reports whether the move was kept.
func (r *splitRefiner) refineTask(i app.TaskID) bool {
	const tol = 1e-9
	ty := r.in.App.Type(i)
	m := r.in.M()

	// Candidate machines: free ones, or ones whose positive shares
	// (excluding task i itself) are all of i's type.
	var cands []platform.MachineID
	load := make([]float64, m)
	for u := 0; u < m; u++ {
		mu := platform.MachineID(u)
		others := r.onAny[u]
		typed := r.typeOn[u][ty]
		if sh := r.se.Share(i, mu); sh > 0 {
			others--
			typed--
		}
		if others > 0 && typed < others {
			continue // carries another type beyond task i
		}
		cands = append(cands, mu)
		// Load without task i's own contribution (clamped like the old
		// full-recompute path: float residue must not go negative).
		load[u] = r.se.MachinePeriod(mu) - r.se.Contribution(i, mu)
		if load[u] < 0 {
			load[u] = 0
		}
	}
	if len(cands) == 0 {
		return false
	}
	shares, _ := waterfillLoads(r.in, i, r.se.Demand(i), cands, load)

	row := make([]float64, m)
	for k, sh := range shares {
		if sh > 0 {
			row[cands[k]] = sh
		}
	}
	prev := r.se.Period()
	old := r.se.Row(i)
	r.countShares(i, -1)
	if err := r.se.SetShares(i, row); err != nil {
		r.countShares(i, +1)
		return false
	}
	if r.se.Period() >= prev-tol {
		// Not an improvement: restore the previous row exactly.
		if err := r.se.SetShares(i, old); err != nil {
			panic("heuristics: restoring a split share row failed: " + err.Error())
		}
		r.countShares(i, +1)
		return false
	}
	r.countShares(i, +1)
	return true
}

// waterfillLoads distributes task i's demand over candidate machines with
// the given base loads: find the lowest level T such that the work
// z_u = max(0, T − load_u) placed on each machine produces
// Σ_u z_u·(1−f[i][u])/w[i][u] = demand survivors; shares are the fractions
// of processed products per machine. Returns (shares, x[i]).
func waterfillLoads(in *core.Instance, i app.TaskID, demand float64, cands []platform.MachineID, load []float64) ([]float64, float64) {
	k := len(cands)
	rate := make([]float64, k)
	for idx, mu := range cands {
		rate[idx] = in.Failures.Survival(i, mu) / in.Platform.Time(i, mu)
	}
	ord := make([]int, k)
	for idx := range ord {
		ord[idx] = idx
	}
	sort.Slice(ord, func(a, b int) bool { return load[cands[ord[a]]] < load[cands[ord[b]]] })

	level := load[cands[ord[0]]]
	sumRate := rate[ord[0]]
	produced := 0.0
	done := false
	for j := 1; j < k; j++ {
		next := load[cands[ord[j]]]
		seg := float64(sumRate * (next - level))
		if produced+seg >= demand {
			level += (demand - produced) / sumRate
			done = true
			break
		}
		produced += seg
		level = next
		sumRate += rate[ord[j]]
	}
	if !done {
		level += (demand - produced) / sumRate
	}

	shares := make([]float64, k)
	total := 0.0
	for idx, mu := range cands {
		if level > load[mu] {
			shares[idx] = (level - load[mu]) / in.Platform.Time(i, mu)
			total += shares[idx]
		}
	}
	for idx := range shares {
		shares[idx] /= total
	}
	return shares, total
}
