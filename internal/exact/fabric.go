// The root split's three steps as standalone calls: Frontier enumerates the
// subtree prefixes, SolveSubtree explores one of them, and Merge reduces the
// outcomes in frontier order. solveParallel (parallel.go) runs the same
// enumeration, the same subtree solve and the same Merge on a goroutine
// pool; a fabric coordinator runs them over leases, enumerating once and
// handing each prefix to a worker process. Determinism carries over
// unchanged: a subtree's exploration is a pure function of (instance,
// options, prefix) — the warm start (explicit-incumbent evaluation, H4w,
// greedy dive) is itself a pure function of the instance, so every process
// derives the same one — and both transports reduce through Merge, so the
// proof is byte-identical to a local run for any process count.
// Externally-injected bounds (Options.BoundInjector) only ever prune
// strictly, so incumbent exchange changes node counts, never proven
// results.
package exact

import (
	"fmt"
	"math"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/platform"
)

// FrontierInfo is the enumerated root split of one instance: the subtree
// prefixes in the order a sequential search first reaches them (the merge
// order), plus the warm start every participant independently re-derives.
type FrontierInfo struct {
	// Prefixes[j][k] is the machine of task order[k] in subtree j; all
	// prefixes share one length (the enumeration depth). Empty when the
	// frontier was exhausted during enumeration — the warm start already
	// is the answer.
	Prefixes [][]platform.MachineID `json:"prefixes"`
	// WarmPeriod is the warm-start incumbent's period, 0 when no warm
	// start exists (a nil WarmAssign; +Inf does not survive JSON).
	// Workers re-derive it; a mismatch means the processes disagree on
	// the instance and the merge must abort.
	WarmPeriod float64 `json:"warmPeriod"`
	// WarmAssign is the warm-start mapping (task i -> machine), nil when
	// no feasible warm start exists.
	WarmAssign []int `json:"warmAssign,omitempty"`
	// Nodes the enumeration consumed from the budget.
	Nodes int64 `json:"nodes"`
	// Stopped reports that the budget (or context) interrupted the
	// enumeration: the prefixes do not partition the search space and
	// must not be used for a proof.
	Stopped bool `json:"stopped"`
}

// Frontier enumerates the root frontier of in to at least target subtrees
// (bounded by the tree's own width), under the same pruning discipline the
// search itself uses. The options' budget meters the enumeration nodes.
func Frontier(in *core.Instance, opts Options, target int) (*FrontierInfo, error) {
	sv, err := newSolver(in, opts)
	if err != nil {
		return nil, err
	}
	front, _ := sv.frontier(max(target, 1))
	return front, nil
}

// SubtreeOutcome is one subtree's deterministic report: its best strict
// improvement over the shared warm start, if any.
type SubtreeOutcome struct {
	// Found marks an improvement; Period and Assign carry it. The period
	// is the search's Pricer value, which equals core.Period of Assign.
	Found  bool    `json:"found"`
	Period float64 `json:"period,omitempty"`
	Assign []int   `json:"assign,omitempty"`
	// Nodes explored in this subtree; Stopped reports a budget or
	// cancellation interrupt (the subtree is not exhausted — the merge
	// must not claim a proof).
	Nodes   int64 `json:"nodes"`
	Stopped bool  `json:"stopped"`
	// WarmPeriod echoes the warm start this solve derived (0 when none
	// exists, mirroring FrontierInfo); a coordinator cross-checks it
	// against its own before merging.
	WarmPeriod float64 `json:"warmPeriod"`
}

// SolveSubtree explores the one subtree under prefix (a FrontierInfo
// prefix) with the subtree solve an in-process pool worker runs: local
// incumbent seeded at the warm-start period, non-strict pruning against
// it, strict pruning against externally-injected bounds. The options must
// equal the ones the frontier was enumerated with, or the subtrees stop
// partitioning the sequential node set.
func SolveSubtree(in *core.Instance, opts Options, prefix []platform.MachineID) (*SubtreeOutcome, error) {
	sv, err := newSolver(in, opts)
	if err != nil {
		return nil, err
	}
	if len(prefix) >= in.N() {
		return nil, fmt.Errorf("exact: subtree prefix covers %d of %d tasks", len(prefix), in.N())
	}
	for _, u := range prefix {
		if u < 0 || int(u) >= in.M() {
			return nil, fmt.Errorf("exact: subtree prefix assigns machine %d of %d", u, in.M())
		}
	}
	s := sv.newSearcher(sv.newShared())
	out := s.subtree(prefix, sv.warmPeriod)
	s.meter.release()
	return out, nil
}

// Merge reduces a root split to its answer. outcomes[j] is the outcome of
// front.Prefixes[j], nil when that subtree was never explored. Merge keeps
// the warm start, then the first strict improvement in frontier order —
// what a sequential search that visited the subtrees in that order keeps.
// A found outcome's period is the Pricer's price of its mapping, which is
// core.Period's, so the winner's period is reported as is. The result is
// proven when the enumeration and every subtree ran to exhaustion; Nodes
// sums the frontier's and the subtrees' counts. When nothing was found the
// error wraps ErrBudgetExhausted for an unproven split and ErrInfeasible
// for a proven one. Found outcomes are trusted: a caller that receives
// them from another process checks them against its own instance first,
// period included.
func Merge(front *FrontierInfo, outcomes []*SubtreeOutcome) (*Result, error) {
	best, bestPeriod := front.WarmAssign, math.Inf(1)
	if best != nil {
		bestPeriod = front.WarmPeriod
	}
	proven := !front.Stopped && len(outcomes) == len(front.Prefixes)
	nodes := front.Nodes
	for _, o := range outcomes {
		if o == nil {
			proven = false
			continue
		}
		proven = proven && !o.Stopped
		nodes += o.Nodes
		if o.Found && o.Period < bestPeriod {
			best, bestPeriod = o.Assign, o.Period
		}
	}
	if best == nil {
		return nil, errNoMapping(!proven)
	}
	mp := core.NewMapping(len(best))
	for i, u := range best {
		mp.Assign(app.TaskID(i), platform.MachineID(u))
	}
	return &Result{Mapping: mp, Period: bestPeriod, Proven: proven, Nodes: nodes}, nil
}

func finiteOrZero(p float64) float64 {
	if math.IsInf(p, 0) {
		return 0
	}
	return p
}

func assignSlice(m *core.Mapping) []int {
	out := make([]int, m.Len())
	for i := range out {
		out[i] = int(m.Machine(app.TaskID(i)))
	}
	return out
}
