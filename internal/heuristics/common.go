// Package heuristics implements the paper's six polynomial-time heuristics
// for the specialized-mapping problem on linear chains and in-trees:
//
//	H1  — random grouping (Algorithm 1)
//	H2  — binary search on the period, machines ranked by per-task speed
//	      rank ("potential optimization", Algorithm 2)
//	H3  — binary search on the period, machines ranked by heterogeneity
//	      (Algorithm 3)
//	H4  — greedy best-performance: cost x·w·F (Algorithm 4)
//	H4w — greedy fastest-machine: cost x·w, failures ignored (Algorithm 5)
//	H4f — greedy most-reliable: cost x·F, speed ignored (Algorithm 6)
//
// All heuristics walk the application root-first (reverse topological
// order, "starting with the last task and going backward"), because the
// product count x[i] of a task is only known once its successor has been
// placed.
//
// Feasibility guard: H1's pseudocode refuses to open a new machine group
// for an already-grouped type unless nbFreeMachines > nbTypesToGo, which
// guarantees that a virgin machine remains for every type not yet seen. The
// H2–H4 listings omit the guard, but without it they can dead-end (all free
// machines specialized before the last type shows up). We enforce the same
// guard everywhere; on instances where the original listings succeed it is
// vacuous.
package heuristics

import (
	"fmt"
	"math"
	"math/rand"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/platform"
)

// Options tunes the heuristics; the zero value reproduces the paper.
type Options struct {
	// Granularity is the binary-search stopping width for H2/H3 in ms
	// (paper: 1 ms). Zero means 1 ms.
	Granularity float64
	// MaxIters caps binary-search iterations as a safety net; zero means
	// 64, plenty for any ms-scale horizon.
	MaxIters int
}

func (o Options) granularity() float64 {
	if o.Granularity > 0 {
		return o.Granularity
	}
	return 1
}

func (o Options) maxIters() int {
	if o.MaxIters > 0 {
		return o.MaxIters
	}
	return 64
}

// Func is the signature shared by all heuristics. The RNG is only used by
// H1; deterministic heuristics ignore it (it may be nil for them).
type Func func(in *core.Instance, rng *rand.Rand, opts Options) (*core.Mapping, error)

// state tracks one in-progress specialized assignment. Product counts,
// machine loads and the running maximum live in a core.Evaluator; the state
// adds the specialization bookkeeping (groups, feasibility guard) that the
// evaluation engine does not know about.
type state struct {
	in   *core.Instance
	ev   *core.Evaluator
	spec []app.TypeID // specialization per machine; noType when free

	nbFree       int    // machines not yet dedicated to any type
	types        int    // types present in the app
	typesToGo    int    // types present in the app with no group yet
	typeHasGroup []bool // per type

	trial []float64 // batch-pricing scratch: one TrialAll row per task
}

const noType app.TypeID = -1

func newState(in *core.Instance) *state {
	m := in.M()
	s := &state{
		in:           in,
		ev:           core.NewEvaluator(in),
		spec:         make([]app.TypeID, m),
		typeHasGroup: make([]bool, in.P()),
		trial:        make([]float64, m),
	}
	// Count only types that actually occur (type IDs may be sparse when a
	// caller builds instances by hand).
	for _, c := range in.App.TypeCounts() {
		if c > 0 {
			s.types++
		}
	}
	s.reset()
	return s
}

// reset returns the state to the empty assignment, reusing its storage.
// Evaluator.Reset restores exact zeros, so a reset state assigns and
// prices bit-identically to a fresh one.
func (s *state) reset() {
	s.ev.Reset()
	for u := range s.spec {
		s.spec[u] = noType
	}
	clear(s.typeHasGroup)
	s.nbFree = len(s.spec)
	s.typesToGo = s.types
}

// demand returns the product count required downstream of task i: x of its
// successor, or 1 at the root. Valid only when the successor is placed,
// which the reverse-topological walk guarantees.
func (s *state) demand(i app.TaskID) float64 {
	d, _ := s.ev.Demand(i)
	return d
}

// load returns machine u's current period Σ x[j]·w[j][u].
func (s *state) load(u platform.MachineID) float64 {
	return s.ev.MachinePeriod(u)
}

// mapping snapshots the finished assignment.
func (s *state) mapping() *core.Mapping { return s.ev.Mapping() }

// canUse reports whether machine u may accept a task of type ty under the
// specialization rule plus the feasibility guard.
func (s *state) canUse(u platform.MachineID, ty app.TypeID) bool {
	switch s.spec[u] {
	case ty:
		return true
	case noType:
		if s.typeHasGroup[ty] {
			// Opening an extra group for a type that already has one
			// burns a free machine; only legal if enough remain for
			// the unseen types.
			return s.nbFree > s.typesToGo
		}
		return true // first group of a fresh type; a free machine is reserved for it
	default:
		return false
	}
}

// assign places task i on machine u, updating specialization bookkeeping
// and the incremental evaluation.
func (s *state) assign(i app.TaskID, u platform.MachineID) {
	ty := s.in.App.Type(i)
	if s.spec[u] == noType {
		s.spec[u] = ty
		s.nbFree--
		if !s.typeHasGroup[ty] {
			s.typeHasGroup[ty] = true
			s.typesToGo--
		}
	}
	_ = s.ev.Assign(i, u)
}

// trialRow batch-prices every landing of task i into the state's scratch
// row and returns it: trial[u] is the period machine u would reach if it
// also took i, bit-equal to m Evaluator.Trial calls but computed in one
// structure-of-arrays pass. Valid until the next trialRow or assign.
func (s *state) trialRow(i app.TaskID) []float64 {
	s.ev.TrialAll(i, s.trial)
	return s.trial
}

// maxLoad returns the current largest machine load (the period of the
// partial mapping).
func (s *state) maxLoad() float64 {
	return s.ev.Period()
}

// validate checks sizes common to all heuristics.
func validate(in *core.Instance) error {
	if in == nil {
		return fmt.Errorf("heuristics: nil instance")
	}
	p := 0
	for _, c := range in.App.TypeCounts() {
		if c > 0 {
			p++
		}
	}
	if p > in.M() {
		return fmt.Errorf("heuristics: %d task types but only %d machines; no specialized mapping exists", p, in.M())
	}
	return nil
}

// costRow fills out[u], for every machine at once, with the incremental
// cost of landing the current task (downstream demand d) on machine u —
// the batched form of the H4 family's per-machine cost closures, walking
// the instance's structure-of-arrays inflation and time rows. Each out[u]
// must be bit-equal to the per-machine expression it replaces.
type costRow func(d float64, inflRow, timRow, out []float64)

// greedy runs the shared backward greedy used by the H4 family: for each
// task (root-first) pick the admissible machine minimizing
// load[u] + cost(i,u); ties break toward the lower machine index, matching
// the listings' first-strict-improvement scan. Loads and costs are gathered
// in one batch row per task instead of m per-machine probes.
func greedy(in *core.Instance, cost costRow) (*core.Mapping, error) {
	if err := validate(in); err != nil {
		return nil, err
	}
	s := newState(in)
	m := in.M()
	infl, tim := core.InflationTable(in), core.TimeTable(in)
	loads := make([]float64, m)
	costs := make([]float64, m)
	for _, i := range in.App.ReverseTopological() {
		ty := in.App.Type(i)
		base := int(i) * m
		cost(s.demand(i), infl[base:base+m], tim[base:base+m], costs)
		s.ev.MachinePeriodsInto(loads)
		best := platform.NoMachine
		bestExec := math.Inf(1)
		for u := 0; u < m; u++ {
			mu := platform.MachineID(u)
			if !s.canUse(mu, ty) {
				continue
			}
			exec := loads[u] + costs[u]
			if exec < bestExec {
				bestExec = exec
				best = mu
			}
		}
		if best == platform.NoMachine {
			return nil, fmt.Errorf("heuristics: no admissible machine for task T%d", int(i)+1)
		}
		s.assign(i, best)
	}
	return s.mapping(), nil
}
