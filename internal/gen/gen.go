// Package gen generates random problem instances reproducing the paper's
// experimental campaigns (§7): linear chains of n tasks over p types mapped
// to m machines, with execution times w[i][u] drawn uniformly in
// [100,1000] ms and failure rates f[i][u] uniform in [0.5%, 2%] (or [0,10%]
// for the high-failure campaign of Figure 8).
//
// Generation is fully deterministic given a seed, so every experiment run is
// reproducible.
package gen

import (
	"fmt"
	"math/rand"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/platform"
)

// Params configures one random instance draw.
type Params struct {
	N int // number of tasks
	P int // number of task types (p <= n and p <= m required for feasibility)
	M int // number of machines

	// WMin, WMax bound the uniform execution-time draw in ms
	// (paper: 100..1000).
	WMin, WMax float64
	// FMin, FMax bound the uniform failure-rate draw
	// (paper: 0.005..0.02; Figure 8 uses 0..0.1).
	FMin, FMax float64

	// TaskOnlyFailures draws one rate per *task* and copies it across
	// machines (f[i][u] = f[i]); this is the Figure 9 regime where the
	// optimal one-to-one mapping is computable.
	TaskOnlyFailures bool

	// TypeAssignment picks how task types are laid on the chain.
	TypeAssignment TypeAssignment
}

// TypeAssignment selects the task-type layout along the chain.
type TypeAssignment int

const (
	// RandomTypes draws each task's type uniformly, then patches the
	// first p tasks to guarantee every type appears at least once.
	RandomTypes TypeAssignment = iota
	// CyclicTypes lays types 0,1,...,p-1,0,1,... along the chain.
	CyclicTypes
)

// Default returns the paper's standard campaign parameters for given sizes.
func Default(n, p, m int) Params {
	return Params{
		N: n, P: p, M: m,
		WMin: 100, WMax: 1000,
		FMin: 0.005, FMax: 0.02,
	}
}

// Validate checks structural feasibility (p <= n, p <= m, bounds ordered).
func (pr Params) Validate() error {
	if pr.N <= 0 || pr.P <= 0 || pr.M <= 0 {
		return fmt.Errorf("gen: sizes must be positive (n=%d p=%d m=%d)", pr.N, pr.P, pr.M)
	}
	if pr.P > pr.N {
		return fmt.Errorf("gen: p=%d types exceed n=%d tasks", pr.P, pr.N)
	}
	if pr.P > pr.M {
		return fmt.Errorf("gen: p=%d types exceed m=%d machines; no specialized mapping exists", pr.P, pr.M)
	}
	if !(pr.WMin > 0) || pr.WMax < pr.WMin {
		return fmt.Errorf("gen: bad execution-time range [%v,%v]", pr.WMin, pr.WMax)
	}
	if pr.FMin < 0 || pr.FMax >= 1 || pr.FMax < pr.FMin {
		return fmt.Errorf("gen: bad failure range [%v,%v]", pr.FMin, pr.FMax)
	}
	return nil
}

// Chain draws one random linear-chain instance.
func Chain(pr Params, rng *rand.Rand) (*core.Instance, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	types := drawTypes(pr, rng)
	a, err := app.NewChain(types)
	if err != nil {
		return nil, err
	}
	return fill(pr, a, rng)
}

// InTree draws a random in-tree instance: `branches` chains of roughly equal
// length joined into a final assembly chain. Exercises the join machinery
// the chain campaigns never touch.
func InTree(pr Params, branches int, rng *rand.Rand) (*core.Instance, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if branches < 2 {
		return nil, fmt.Errorf("gen: in-tree needs >= 2 branches, got %d", branches)
	}
	if pr.N < branches+1 {
		return nil, fmt.Errorf("gen: n=%d too small for %d branches plus a join", pr.N, branches)
	}
	types := drawTypes(pr, rng)
	b := app.NewBuilder()
	// Reserve one task for the join root; split the rest across branches.
	rest := pr.N - 1
	var tips []app.TaskID
	k := 0
	for br := 0; br < branches; br++ {
		size := rest / branches
		if br < rest%branches {
			size++
		}
		if size == 0 {
			continue
		}
		_, last := b.AddChain(types[k : k+size]...)
		tips = append(tips, last)
		k += size
	}
	b.Join(types[pr.N-1], "assemble", tips...)
	a, err := b.Build()
	if err != nil {
		return nil, err
	}
	return fill(pr, a, rng)
}

func drawTypes(pr Params, rng *rand.Rand) []app.TypeID {
	types := make([]app.TypeID, pr.N)
	switch pr.TypeAssignment {
	case CyclicTypes:
		copy(types, app.CyclicTypes(pr.N, pr.P))
	default:
		for i := range types {
			types[i] = app.TypeID(rng.Intn(pr.P))
		}
		// Guarantee every type is represented (the paper's instances
		// always have exactly p types in play).
		perm := rng.Perm(pr.N)
		for ty := 0; ty < pr.P; ty++ {
			types[perm[ty]] = app.TypeID(ty)
		}
	}
	return types
}

// fill draws w and f honouring the typed-time constraint: times are drawn
// per (type, machine) and shared by all tasks of the type. Failure rates are
// attached to the (task, machine) couple as in the paper's model. (Rates per
// task are legal: the paper constrains only execution times by type.)
func fill(pr Params, a *app.Application, rng *rand.Rand) (*core.Instance, error) {
	n, m := a.NumTasks(), pr.M
	wByType := make([][]float64, a.NumTypes())
	for ty := range wByType {
		row := make([]float64, m)
		for u := range row {
			row[u] = pr.WMin + float64(rng.Float64()*(pr.WMax-pr.WMin))
		}
		wByType[ty] = row
	}
	w := make([][]float64, n)
	for i := 0; i < n; i++ {
		w[i] = append([]float64(nil), wByType[a.Type(app.TaskID(i))]...)
	}
	p, err := platform.New(w)
	if err != nil {
		return nil, err
	}

	f := make([][]float64, n)
	for i := 0; i < n; i++ {
		f[i] = make([]float64, m)
		if pr.TaskOnlyFailures {
			fi := pr.FMin + float64(rng.Float64()*(pr.FMax-pr.FMin))
			for u := range f[i] {
				f[i][u] = fi
			}
		} else {
			for u := range f[i] {
				f[i][u] = pr.FMin + float64(rng.Float64()*(pr.FMax-pr.FMin))
			}
		}
	}
	fm, err := failure.New(f)
	if err != nil {
		return nil, err
	}
	return core.NewInstance(a, p, fm)
}

// RNG returns a deterministic generator for the given seed. Experiments
// derive one sub-seed per (point, draw) so that adding series never shifts
// the random stream of existing ones.
func RNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// DeriveRNG returns the deterministic generator of the child stream
// (parent, idx...): RNG over the SubSeed-derived seed. The experiment
// engine gives every (figure, point, draw) its own stream this way, so
// draws can execute on any worker in any order and still produce the
// byte-identical series a sequential run would.
func DeriveRNG(parent int64, idx ...int64) *rand.Rand {
	return RNG(SubSeed(parent, idx...))
}

// StringSeed folds an identifier (e.g. a figure name) into a seed index
// (FNV-1a) so textual ids can participate in SubSeed derivations.
func StringSeed(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}

// SubSeed derives a reproducible child seed from a parent seed and indices
// (a simple SplitMix64-style mix; no external dependency).
func SubSeed(parent int64, idx ...int64) int64 {
	z := uint64(parent)
	for _, v := range idx {
		z += 0x9e3779b97f4a7c15 ^ uint64(v)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z & 0x7fffffffffffffff)
}
