// Differential gates for the incremental bound engine (bound.go): the
// delta-maintained dlb/minLand/landArg state must reproduce the
// from-scratch computation bit for bit at every node — not approximately,
// because the bound's early-exit comparisons and the assignment bound's
// collision filter read these values, and a single flipped bit could reshape the search
// tree. Three layers pin this:
//
//   - TestIncrementalBoundNodeIdentity: whole solves over the parallel
//     differential corpus, incremental vs DisableIncrementalBound, must
//     agree on node counts (sequential) and proven results (any worker
//     count);
//   - FuzzBoundDelta: a random instance × rule × assign/backtrack trace,
//     with every reached node's cached ingredients compared against a
//     fresh from-scratch searcher replayed to the same prefix;
//   - TestLowerBoundEarlyExitContract: the tested contract that an early
//     bound exit leaves the not-yet-filled (or still-stale) suffix of
//     minLand/landArg unread — the assignment bound only runs after a full
//     fill.
//
// Smoke-run the fuzzer locally or in CI with:
//
//	go test -run='^$' -fuzz=FuzzBoundDelta -fuzztime=10s ./internal/exact
package exact

import (
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/platform"
)

// TestIncrementalBoundNodeIdentity solves the full differential corpus with
// the incremental bound on and off. Sequential runs must be node-for-node
// identical (same Nodes, same period bits, same mapping); parallel runs
// must keep proven results byte-identical for every worker count (parallel
// node counts are timing-dependent either way — workers prune against a
// shared incumbent that lands at different moments per run — so only the
// sequential leg pins Nodes).
func TestIncrementalBoundNodeIdentity(t *testing.T) {
	defer forceIncBound(t)()
	corpus := differentialCorpus(t)
	for ci, c := range corpus {
		opts := Options{Rule: c.rule, MaxNodes: 4_000_000}
		inc, err := Solve(c.in, opts)
		if err != nil {
			t.Fatalf("%s[%d]: incremental: %v", c.name, ci, err)
		}
		off := opts
		off.DisableIncrementalBound = true
		scratch, err := Solve(c.in, off)
		if err != nil {
			t.Fatalf("%s[%d]: from-scratch: %v", c.name, ci, err)
		}
		if inc.Nodes != scratch.Nodes {
			t.Fatalf("%s[%d]: node counts diverged: incremental %d, from-scratch %d",
				c.name, ci, inc.Nodes, scratch.Nodes)
		}
		if inc.Proven != scratch.Proven ||
			math.Float64bits(inc.Period) != math.Float64bits(scratch.Period) ||
			inc.Mapping.String() != scratch.Mapping.String() {
			t.Fatalf("%s[%d]: results diverged: incremental (%v, %v, %v), from-scratch (%v, %v, %v)",
				c.name, ci, inc.Period, inc.Proven, inc.Mapping, scratch.Period, scratch.Proven, scratch.Mapping)
		}
		if ci%3 != 0 {
			continue // parallel legs on a corpus subset keep the test quick
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := Solve(c.in, optsWithWorkers(off, workers))
			if err != nil {
				t.Fatalf("%s[%d] workers=%d: %v", c.name, ci, workers, err)
			}
			if par.Proven != inc.Proven ||
				math.Float64bits(par.Period) != math.Float64bits(inc.Period) ||
				par.Mapping.String() != inc.Mapping.String() {
				t.Fatalf("%s[%d] workers=%d from-scratch: (%v, %v, %v), incremental sequential (%v, %v, %v)",
					c.name, ci, workers, par.Period, par.Proven, par.Mapping, inc.Period, inc.Proven, inc.Mapping)
			}
		}
	}
}

// TestIncrementalBoundNodeIdentityRelaxForced repeats the sequential
// node-identity gate on the one-to-one corpus, where the assignment bound
// reads the cached landArg directly: this leg proves the incremental cache
// feeds it the exact bits the from-scratch fill would, collision scans and
// all.
func TestIncrementalBoundNodeIdentityRelaxForced(t *testing.T) {
	defer forceIncBound(t)()
	for ci, c := range oneToOneCorpus(t) {
		opts := Options{Rule: c.rule, MaxNodes: 4_000_000}
		inc, err := Solve(c.in, opts)
		if err != nil {
			t.Fatalf("%s[%d]: incremental: %v", c.name, ci, err)
		}
		off := opts
		off.DisableIncrementalBound = true
		scratch, err := Solve(c.in, off)
		if err != nil {
			t.Fatalf("%s[%d]: from-scratch: %v", c.name, ci, err)
		}
		if inc.Nodes != scratch.Nodes ||
			math.Float64bits(inc.Period) != math.Float64bits(scratch.Period) ||
			inc.Mapping.String() != scratch.Mapping.String() {
			t.Fatalf("%s[%d]: one-to-one runs diverged: incremental (%d nodes, %v), from-scratch (%d nodes, %v)",
				c.name, ci, inc.Nodes, inc.Period, scratch.Nodes, scratch.Period)
		}
	}
}

// forceIncBound bypasses the incremental engine's structural auto gate for
// the duration of a test: the differential corpus and the fuzz decoder
// build small, often dense instances the gate would route to the
// from-scratch path, and these tests exist to exercise the incremental one.
func forceIncBound(t testing.TB) func() {
	t.Helper()
	old := incBoundForce
	incBoundForce = true
	return func() { incBoundForce = old }
}

// incWalker drives a searcher down and up an explicit assign stack the way
// dfs would — rule bookkeeping, pricer and incremental hooks in the same
// order — so tests can stop at arbitrary interior nodes.
type incWalker struct {
	s     *searcher
	stack []incFrame
}

type incFrame struct {
	u    int
	spec app.TypeID
	used bool
}

func (w *incWalker) depth() int { return len(w.stack) }

func (w *incWalker) prefix() []platform.MachineID {
	p := make([]platform.MachineID, len(w.stack))
	for j, f := range w.stack {
		p[j] = platform.MachineID(f.u)
	}
	return p
}

func (w *incWalker) descend(u int) {
	s, k := w.s, len(w.stack)
	i := s.order[k]
	w.stack = append(w.stack, incFrame{u: u, spec: s.spec[u], used: s.used[u]})
	s.spec[u] = s.in.App.Type(i)
	s.used[u] = true
	s.occupy(u)
	_ = s.pr.Assign(i, platform.MachineID(u))
	if s.inc {
		s.ibAssign(k, u)
	}
}

func (w *incWalker) backtrack() {
	s, k := w.s, len(w.stack)-1
	f := w.stack[k]
	w.stack = w.stack[:k]
	s.pr.Unassign(s.order[k])
	if s.inc {
		s.ibUnassign(k)
	}
	s.vacate(f.u)
	s.spec[f.u], s.used[f.u] = f.spec, f.used
}

// FuzzBoundDelta: along any feasible assign/backtrack trace, the
// incremental searcher's bound ingredients — demand lower bounds, cheapest
// landings, argmin machines — and the full bound value must be bit-equal to
// a from-scratch searcher replayed to the same prefix.
func FuzzBoundDelta(f *testing.F) {
	f.Add([]byte("bound-delta-incremental"))
	f.Add([]byte{6, 3, 2, 0, 120, 40, 1, 90, 0, 55, 2, 80, 1, 70, 3, 1, 2, 0, 1, 2})
	f.Add([]byte{5, 5, 2, 1, 30, 60, 90, 120, 150, 180, 210, 240, 14, 3, 1})
	f.Add([]byte("\x07\x04\x01\x01chain-descend-backtrack\x22"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		defer forceIncBound(t)()
		p := &fuzzTape{data: data}
		in, err := decodeBoundInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		rule := core.Specialized
		switch p.next() % 3 {
		case 0:
			if in.N() <= in.M() {
				rule = core.OneToOne
			}
		case 1:
			rule = core.GeneralRule
		}
		sv, err := newSolver(in, Options{Rule: rule})
		if err != nil {
			t.Fatal(err)
		}
		w := &incWalker{s: sv.newSearcher(nil)}
		if !w.s.inc {
			t.Fatal("default searcher is not incremental")
		}
		n := in.N()
		check := func(step int) {
			s := w.s
			k := w.depth()
			// Full +Inf walk refreshes every stale landing in [k, n) and
			// returns the complete bound value.
			got := s.lowerBound(k, math.Inf(1), math.Inf(1))
			// From-scratch oracle at the same node, with minLand/landArg
			// allocated so lowerBound fills them too.
			sv2, err := newSolver(in, Options{Rule: rule, DisableIncrementalBound: true})
			if err != nil {
				t.Fatal(err)
			}
			s2 := sv2.newSearcher(nil)
			s2.minLand = make([]float64, n)
			s2.landArg = make([]int, n)
			s2.push(w.prefix())
			want := s2.lowerBound(k, math.Inf(1), math.Inf(1))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d depth %d: bound %v (bits %x), from-scratch %v (bits %x)",
					step, k, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if math.IsInf(want, 1) {
				// An infinite landing (no feasible machine for some unplaced
				// task) trips the early exit even at +Inf thresholds, in both
				// modes at the same position; past it the from-scratch arrays
				// are unfilled by contract, so there is nothing to compare.
				return
			}
			for j := k; j < n; j++ {
				if math.Float64bits(s.dlb[j]) != math.Float64bits(s2.dlb[j]) {
					t.Fatalf("step %d depth %d: dlb[%d] = %v, from-scratch %v", step, k, j, s.dlb[j], s2.dlb[j])
				}
				if math.Float64bits(s.minLand[j]) != math.Float64bits(s2.minLand[j]) {
					t.Fatalf("step %d depth %d: minLand[%d] = %v, from-scratch %v", step, k, j, s.minLand[j], s2.minLand[j])
				}
				if s.landArg[j] != s2.landArg[j] {
					t.Fatalf("step %d depth %d: landArg[%d] = %d, from-scratch %d", step, k, j, s.landArg[j], s2.landArg[j])
				}
			}
		}
		check(0)
		for step := 1; step <= 24; step++ {
			k := w.depth()
			down := p.next()%2 == 0 && k < n
			if down {
				i := w.s.order[k]
				ty := in.App.Type(i)
				var feas []int
				for u := 0; u < in.M(); u++ {
					if w.s.feasible(u, ty) {
						feas = append(feas, u)
					}
				}
				if len(feas) == 0 {
					down = false
				} else {
					w.descend(feas[p.intn(len(feas))])
				}
			}
			if !down {
				if k == 0 {
					continue
				}
				w.backtrack()
			}
			check(step)
		}
		for w.depth() > 0 {
			w.backtrack()
			check(100 + w.depth())
		}
	})
}

// TestLowerBoundEarlyExitContract pins the early-exit invariant from both
// sides. From-scratch mode: when the bound returns early, the
// minLand/landArg suffix past the exit point must be untouched — poisoned
// sentinels survive. Incremental mode: the stale marks past the last
// refresh window are left standing rather than repriced. A +Inf call
// afterwards must fill (or refresh) everything.
func TestLowerBoundEarlyExitContract(t *testing.T) {
	defer forceIncBound(t)()
	in := symmetricInstanceF(t, 10, 2, 5, 3, 0.005, 0.05, 404)
	order := in.App.ReverseTopological()
	n := len(order)

	// Pick the exit threshold from an untouched oracle run: the full bound
	// at the root has maxTask = max cheapest landing; using the root's
	// first landing as the threshold forces the exit at j=0.
	svO, err := newSolver(in, Options{Rule: core.Specialized, DisableIncrementalBound: true})
	if err != nil {
		t.Fatal(err)
	}
	so := svO.newSearcher(nil)
	so.minLand = make([]float64, n)
	so.landArg = make([]int, n)
	if lb := so.lowerBound(0, math.Inf(1), math.Inf(1)); math.IsInf(lb, 1) {
		t.Fatal("root bound is infinite; pick another instance")
	}
	thr := so.minLand[0]
	if thr <= 0 {
		t.Fatalf("first landing %v is not positive", thr)
	}

	t.Run("from-scratch", func(t *testing.T) {
		sv, err := newSolver(in, Options{Rule: core.Specialized, DisableIncrementalBound: true})
		if err != nil {
			t.Fatal(err)
		}
		s := sv.newSearcher(nil)
		s.minLand = make([]float64, n)
		s.landArg = make([]int, n)
		for j := range s.minLand {
			s.minLand[j] = math.NaN() // poison: a read would be visible
			s.landArg[j] = -7
		}
		lb := s.lowerBound(0, thr, math.Inf(1))
		if lb < thr {
			t.Fatalf("bound %v did not reach the exit threshold %v", lb, thr)
		}
		// The exit fired at j=0: every later position must still be poisoned.
		for j := 1; j < n; j++ {
			if !math.IsNaN(s.minLand[j]) || s.landArg[j] != -7 {
				t.Fatalf("early exit filled minLand[%d]=%v landArg[%d]=%d past the exit point",
					j, s.minLand[j], j, s.landArg[j])
			}
		}
		// A full +Inf pass overwrites every sentinel.
		if lb := s.lowerBound(0, math.Inf(1), math.Inf(1)); math.IsInf(lb, 1) {
			t.Fatalf("full bound is infinite: %v", lb)
		}
		for j := 0; j < n; j++ {
			if math.IsNaN(s.minLand[j]) || s.landArg[j] == -7 {
				t.Fatalf("full fill left position %d poisoned", j)
			}
		}
	})

	t.Run("incremental", func(t *testing.T) {
		sv, err := newSolver(in, Options{Rule: core.Specialized})
		if err != nil {
			t.Fatal(err)
		}
		s := sv.newSearcher(nil)
		if !s.inc {
			t.Fatal("default searcher is not incremental")
		}
		// Landings start lazily stale; one full root bound fills the cache
		// so the descend below has fresh argmins to invalidate.
		if lb := s.lowerBound(0, math.Inf(1), math.Inf(1)); math.IsInf(lb, 1) {
			t.Fatalf("root bound is infinite: %v", lb)
		}
		// Descend one level so the suffix has stale landings to (not)
		// refresh: landing on a machine invalidates every cached landing
		// whose argmin is that machine, so descending onto the LAST
		// position's argmin guarantees a stale position past the first
		// refresh window.
		u0 := s.landArg[n-1]
		if u0 < 0 {
			t.Fatalf("position %d has no feasible landing at the root", n-1)
		}
		w := &incWalker{s: s}
		w.descend(u0)
		if s.ibNPend != 1 {
			t.Fatalf("descend did not defer the delta sweep (%d pending)", s.ibNPend)
		}
		if n <= 1+ibWindow {
			t.Fatalf("seed has no position past the first refresh window (n=%d, window=%d)", n, ibWindow)
		}

		// Top-of-bound exit (the common pruned-node path): the current
		// maximum already meets the threshold, so the walk never starts —
		// the deferred delta sweep is not even applied, zero re-pricing.
		lb := s.lowerBound(1, s.pr.Max(), s.pr.Max())
		if math.Float64bits(lb) != math.Float64bits(s.pr.Max()) {
			t.Fatalf("top exit returned %v, want the current maximum %v", lb, s.pr.Max())
		}
		if s.ibNPend != 1 {
			t.Fatal("top exit applied the deferred delta sweep")
		}

		// Mid-loop exit at the first suffix position: take the threshold
		// from a from-scratch oracle at the same node, so the exit fires
		// the moment position 1's refreshed landing lands on the same bits.
		svO2, err := newSolver(in, Options{Rule: core.Specialized, DisableIncrementalBound: true})
		if err != nil {
			t.Fatal(err)
		}
		s2 := svO2.newSearcher(nil)
		s2.minLand = make([]float64, n)
		s2.landArg = make([]int, n)
		s2.push(w.prefix())
		full := s2.lowerBound(1, math.Inf(1), math.Inf(1))
		thr := s2.minLand[1]
		if thr <= s.pr.Max() {
			t.Fatalf("seed does not exercise the mid-loop exit: first landing %v under current max %v", thr, s.pr.Max())
		}
		lb = s.lowerBound(1, thr, math.Inf(1))
		if math.Float64bits(lb) != math.Float64bits(thr) {
			t.Fatalf("mid-loop exit returned %v, want the first landing %v", lb, thr)
		}
		if s.ibNPend != 0 {
			t.Fatalf("bound walk left the delta sweep pending (%d)", s.ibNPend)
		}
		// The sweep (applied just now) invalidated position n-1 — u0 was its
		// argmin — and the exit fired inside the first refresh window
		// [1, 1+ibWindow): positions past it must still be stale — their
		// re-pricing was never paid for.
		if !s.ibStale[n-1] {
			t.Fatalf("early exit re-priced position %d beyond its refresh window", n-1)
		}

		// A full +Inf walk refreshes everything and reproduces the
		// from-scratch bound bit for bit.
		lb = s.lowerBound(1, math.Inf(1), math.Inf(1))
		if math.Float64bits(lb) != math.Float64bits(full) {
			t.Fatalf("full incremental bound %v, from-scratch %v", lb, full)
		}
		for j := 1; j < n; j++ {
			if s.ibStale[j] {
				t.Fatalf("full walk left position %d stale", j)
			}
		}
		w.backtrack()
	})
}
