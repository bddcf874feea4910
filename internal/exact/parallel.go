// Parallel root split: one pipeline, two transports. The branch and bound
// fans out by enumerating the assignment frontier to a small depth d
// (solver.frontier), solving the subtree under each frontier prefix
// (searcher.subtree) and reducing the outcomes in frontier order (Merge).
// In process, solveParallel runs the subtree solves on a goroutine pool
// whose workers share one atomic node budget and one atomic incumbent;
// each owns a private searcher and pricer, so nothing on the hot path
// takes a lock. Across processes, the fabric coordinator runs the same
// three steps through Frontier, SolveSubtree and Merge (fabric.go), with
// HTTP leases for transport.
//
// Determinism. A proven parallel search returns byte-identical results for
// any worker count, including Workers=1 sequential search, because every
// ingredient of the answer is timing-independent:
//
//   - loads, x-values, bounds and the best-first child order are pure
//     functions of a node's partial assignment (see core.Pricer), so a
//     subtree explores the same tree shape regardless of which worker runs
//     it or when;
//   - workers prune non-strictly (>=) against their job-local incumbent —
//     whose evolution is deterministic within the subtree — but strictly
//     (>) against the shared cross-worker incumbent. A subtree whose true
//     optimum P equals the global optimum therefore always reaches its
//     first P-attaining leaf in DFS order: ancestors of that leaf have
//     bound <= P <= shared, which never trips a strict test, whatever the
//     other workers published in the meantime;
//   - Merge walks the subtree outcomes in frontier order and keeps the
//     first strict improvement, exactly what a sequential search that
//     visited the subtrees in that order would have kept.
//
// A search stopped by budget returns the best solution any subtree found
// (Proven=false), period ties broken in frontier order; which solutions
// were found by then depends on timing, like any interrupted anytime
// search.
package exact

import (
	"sync"
	"sync/atomic"

	"microfab/internal/platform"
)

// solveParallel runs the root split over `workers` goroutines.
func (sv *solver) solveParallel(workers int) (*Result, error) {
	front, shared := sv.frontier(8 * workers)
	outs := make([]*SubtreeOutcome, len(front.Prefixes))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(outs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := sv.newSearcher(shared)
			defer s.meter.release()
			for j := int(next.Add(1) - 1); j < len(outs) && !s.meter.stopped(); j = int(next.Add(1) - 1) {
				outs[j] = s.subtree(front.Prefixes[j], sv.warmPeriod)
			}
		}()
	}
	wg.Wait()
	return Merge(sv.in, front, outs)
}

// frontier builds the shared incumbent and the enumerating searcher, then
// expands the root frontier level by level until it is at least target
// subtrees wide (the in-process split uses ~8 per worker), the next level
// would complete the mapping, or the budget stops the search (Stopped, no
// prefixes). Every prefix respects the rule, the dominance filter and the
// warm-start pruning, so the subtrees partition exactly the node set a
// sequential search visits.
func (sv *solver) frontier(target int) (*FrontierInfo, *incumbent) {
	shared := sv.newShared()
	enum := sv.newSearcher(shared)
	enum.bestPeriod = sv.warmPeriod
	prefixes := [][]platform.MachineID{nil}
	for depth := 0; depth < len(sv.order)-1 && len(prefixes) > 0 && len(prefixes) < target; depth++ {
		var next [][]platform.MachineID
		for _, prefix := range prefixes {
			next = enum.expand(prefix, next)
		}
		prefixes = next
	}
	enum.meter.release()
	front := &FrontierInfo{
		Prefixes:   prefixes,
		WarmPeriod: finiteOrZero(sv.warmPeriod),
		Nodes:      enum.meter.used,
		Stopped:    sv.bud.stop.Load(),
	}
	if front.Stopped {
		front.Prefixes = nil
	}
	if sv.warm != nil {
		front.WarmAssign = assignSlice(sv.warm)
	}
	return front, shared
}

// expand replays prefix, applies the same per-node pruning as dfs, and
// appends every surviving child prefix to dst — in dfs's own visit order
// (the shared children helper), so the frontier order is the order a
// sequential search would first reach the subtrees in.
func (s *searcher) expand(prefix []platform.MachineID, dst [][]platform.MachineID) [][]platform.MachineID {
	if !s.meter.step() {
		return dst
	}
	s.push(prefix)
	defer s.pop(prefix)
	k := len(prefix)
	sharedP := s.shared.load()
	if s.bnd != nil {
		if s.prunes(k, s.bestPeriod, sharedP) {
			return dst
		}
	}
	for _, c := range s.children(k, sharedP) {
		child := make([]platform.MachineID, k+1)
		copy(child, prefix)
		child[k] = c.u
		dst = append(dst, child)
	}
	return dst
}

// subtree is the root split's one subtree solve, run by the in-process
// pool and by SolveSubtree alike: replay prefix, reset the local incumbent
// to the warm-start period (non-strict pruning against it, strict against
// the shared one), search, unwind, and package the outcome for Merge.
func (s *searcher) subtree(prefix []platform.MachineID, warmPeriod float64) *SubtreeOutcome {
	start := s.meter.used
	s.push(prefix)
	s.best = nil
	s.bestPeriod = warmPeriod
	s.dfs(len(prefix))
	s.pop(prefix)
	out := &SubtreeOutcome{
		Nodes:      s.meter.used - start,
		Stopped:    s.meter.stopped(),
		WarmPeriod: finiteOrZero(warmPeriod),
	}
	if s.best != nil {
		out.Found, out.Period, out.Assign = true, s.bestPeriod, assignSlice(s.best)
	}
	return out
}
