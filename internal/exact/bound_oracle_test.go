// Oracle gates for the exact solver's prune decision (bound.go). The
// production bound keeps three of its ingredients up to date on assign —
// the per-depth placed-work stack wAt, the dedicated-machine counts ded and
// the feasibility penalty rows pen — takes every landing minimum in one
// core.(*Pricer).MinLandingAt pass, and skips landing scans and the
// water-filling behind screens that cannot change the decision, so it
// never computes the bound's value in full. The oracle below rederives the
// value at every node: it re-sums the placed work per type from depth 0,
// rescans the machines for the dedicated counts, filters a PriceAllAt row
// through feasible(), and water-fills without the quotient cache.
// Production's decision must act on exactly the oracle's bits — not
// approximately, because a single flipped bit could reshape the search
// tree. checkDecision pins that by bracketing thresholds. Three layers
// hold it:
//
//   - TestIncrementalBoundNodeIdentity and its one-to-one leg
//     TestIncrementalBoundNodeIdentityRelaxForced: whole solves over the
//     differential corpus must match oracleSolve, a sequential DFS that
//     prunes with the oracle bound, on node counts, period bits and
//     mapping; parallel solves must match its proven results;
//   - FuzzBoundDelta: a random instance × rule × assign/backtrack walk;
//     after every step the decision must bracket the oracle's bound (and
//     match it at landing-valued thresholds), dlb and the one-to-one
//     landArg must equal the oracle's, and the maintained wAt/ded/pen must
//     equal a fresh recomputation — for the walked searcher and for a
//     second one replaying the prefix through push, whose pop must restore
//     it to pristine;
//   - TestLowerBoundEarlyExitContract: an early prune leaves the suffix
//     past the exit point unwritten and the maintained ingredients intact,
//     and a stale landing hint falls back to the full scan.
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

// boundOracle evaluates the rederiving lower bound on a searcher's current
// node. It reads the searcher's rule state (pricer, spec, used, nOn) and
// its static bounder tables, never the maintained ingredients, and writes
// only its own scratch.
type boundOracle struct {
	s       *searcher
	pos     []int // pos[i]: task i's search-order position
	dlb     []float64
	minLand []float64
	landArg []int
	typeW   []float64
	ded     []int
	alloc   []int
	row     []float64
}

func newBoundOracle(s *searcher) *boundOracle {
	n, p := len(s.order), s.in.P()
	o := &boundOracle{s: s, pos: make([]int, n), dlb: make([]float64, n),
		minLand: make([]float64, n), landArg: make([]int, n),
		typeW: make([]float64, p), ded: make([]int, p), alloc: make([]int, p),
		row: make([]float64, s.m)}
	for k, i := range s.order {
		o.pos[i] = k
	}
	return o
}

// bound is the admissible lower bound of the node at depth k, computed
// from scratch. With finite thresholds it returns early, as soon as the
// value reaches localBest or exceeds sharedP, with a value that does;
// minLand/landArg are filled up to the exit point.
func (o *boundOracle) bound(k int, localBest, sharedP float64) float64 {
	s := o.s
	n := len(s.order)
	lb := s.pr.Max()
	if k == n || lb >= localBest || lb > sharedP {
		return lb
	}
	b := s.bnd
	spec := s.rule == core.Specialized
	var total float64
	if spec {
		clear(o.typeW)
		for j := 0; j < k; j++ {
			i := s.order[j]
			o.typeW[s.in.App.Type(i)] += float64(s.pr.X(i) * s.in.Platform.Time(i, s.pr.Machine(i)))
		}
	} else {
		for u := 0; u < s.m; u++ {
			total += s.pr.Load(platform.MachineID(u))
		}
	}
	maxTask := 0.0
	for j := k; j < n; j++ {
		i := s.order[j]
		var d float64
		if succ := s.in.App.Successor(i); succ == app.NoTask {
			d = 1
		} else if sp := o.pos[succ]; sp < k {
			d = s.pr.X(succ)
		} else {
			d = o.dlb[sp] * b.minInflAt[sp]
		}
		o.dlb[j] = d
		c := float64(d * b.minCostAt[j])
		total += c
		ty := s.in.App.Type(i)
		if spec {
			o.typeW[ty] += c
		}
		land, landAt := math.Inf(1), -1
		s.pr.PriceAllAt(i, d, o.row)
		for u := 0; u < s.m; u++ {
			if !s.feasible(u, ty) {
				continue
			}
			if at := o.row[u]; at < land {
				land, landAt = at, u
			}
		}
		o.minLand[j], o.landArg[j] = land, landAt
		if land > maxTask {
			maxTask = land
			if maxTask >= localBest || maxTask > sharedP {
				return maxTask
			}
		}
	}
	if maxTask > lb {
		lb = maxTask
	}
	if spec {
		clear(o.ded)
		for u := 0; u < s.m; u++ {
			if s.nOn[u] > 0 && s.spec[u] != noType {
				o.ded[s.spec[u]]++
			}
		}
		if wf := oracleWaterfill(o.typeW, o.ded, s.m, o.alloc) * sumSlack; wf > lb {
			lb = wf
		}
	} else if pk := total / float64(s.m) * sumSlack; pk > lb {
		lb = pk
	}
	if s.ab != nil {
		// The assignment bound reads dlb/landArg off the searcher: hand it
		// the oracle's for the call.
		dlb, landArg := s.dlb, s.landArg
		s.dlb, s.landArg = o.dlb, o.landArg
		v, ok := s.assignmentBound(k)
		s.dlb, s.landArg = dlb, landArg
		if ok && v > lb {
			lb = v
		}
	}
	return lb
}

// checkDecision requires production's prune decision at depth k to act on
// exactly the bits of full, the oracle's bound for the node: a local
// threshold (non-strict) prunes at full but not at the next float up, a
// shared one (strict) at the next float down but not at full. A +Inf
// bound must prune at +Inf thresholds. The non-pruning call runs first:
// it scans every landing whose hint prices above full, so when a landing
// attains full, the pruning call at full meets a hint that prices it
// exactly — the case a non-strict landing screen would get wrong.
func checkDecision(t testing.TB, s *searcher, k int, full float64, where string) {
	t.Helper()
	inf := math.Inf(1)
	if math.IsInf(full, 1) {
		if !s.prunes(k, inf, inf) {
			t.Fatalf("%s: depth %d: +Inf bound does not prune at +Inf thresholds", where, k)
		}
		return
	}
	for _, c := range []struct {
		local, shared float64
		want          bool
	}{
		{math.Nextafter(full, inf), inf, false},
		{full, inf, true},
		{inf, math.Nextafter(full, -inf), true},
		{inf, full, false},
	} {
		if got := s.prunes(k, c.local, c.shared); got != c.want {
			t.Fatalf("%s: depth %d: prunes(local %v, shared %v) = %v around oracle bound %v (bits %x)",
				where, k, c.local, c.shared, got, full, math.Float64bits(full))
		}
	}
}

// oracleWaterfill is waterfill without the quotient cache: every spare
// machine rescans every type's W[t]/alloc[t].
func oracleWaterfill(W []float64, ded []int, m int, alloc []int) float64 {
	floor := 0
	any := false
	for t, w := range W {
		if w > 0 {
			any = true
			alloc[t] = ded[t]
			if alloc[t] < 1 {
				alloc[t] = 1
			}
			floor += alloc[t]
		} else {
			alloc[t] = 0
		}
	}
	if !any {
		return 0
	}
	if floor > m {
		return math.Inf(1)
	}
	for extra := m - floor; extra > 0; extra-- {
		worst, at := -1.0, -1
		for t, w := range W {
			if w <= 0 {
				continue
			}
			if v := w / float64(alloc[t]); v > worst {
				worst, at = v, t
			}
		}
		alloc[at]++
	}
	worst := 0.0
	for t, w := range W {
		if w <= 0 {
			continue
		}
		if v := w / float64(alloc[t]); v > worst {
			worst = v
		}
	}
	return worst
}

// oracleSolve is the sequential Solve with every node bounded by the
// oracle: dfs's gather, visit order and pruning tests, minus the
// ingredient maintenance the oracle does not read.
func oracleSolve(t testing.TB, in *core.Instance, opts Options) *Result {
	t.Helper()
	sv, err := newSolver(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := sv.newSearcher(nil)
	s.best, s.bestPeriod = sv.warm, sv.warmPeriod
	newBoundOracle(s).dfs(0)
	s.meter.release()
	res, err := sv.finish(s.best, s.bestPeriod)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (o *boundOracle) dfs(k int) {
	s := o.s
	if !s.meter.step() {
		return
	}
	if k == len(s.order) {
		if p := s.pr.Max(); p < s.bestPeriod {
			s.bestPeriod, s.best = p, s.pr.Mapping()
		}
		return
	}
	inf := math.Inf(1)
	if s.bnd != nil && o.bound(k, s.bestPeriod, inf) >= s.bestPeriod {
		return
	}
	i := s.order[k]
	ty := s.in.App.Type(i)
	for _, c := range s.children(k, inf) {
		if c.load >= s.bestPeriod {
			continue
		}
		prevSpec, prevUsed := s.spec[c.u], s.used[c.u]
		s.spec[c.u], s.used[c.u] = ty, true
		s.occupy(int(c.u))
		_ = s.pr.Assign(i, c.u)
		o.dfs(k + 1)
		s.pr.Unassign(i)
		s.vacate(int(c.u))
		s.spec[c.u], s.used[c.u] = prevSpec, prevUsed
		if s.meter.stopped() {
			return
		}
	}
}

// TestIncrementalBoundNodeIdentity solves the full differential corpus
// with the production bound and with the oracle. Sequential runs must be
// node-for-node identical (same Nodes, same period bits, same mapping);
// parallel runs must keep proven results byte-identical for every worker
// count (parallel node counts are timing-dependent — workers prune against
// a shared incumbent that lands at different moments per run — so only
// the sequential leg pins Nodes).
func TestIncrementalBoundNodeIdentity(t *testing.T) {
	corpus := differentialCorpus(t)
	for ci, c := range corpus {
		opts := Options{Rule: c.rule, MaxNodes: 4_000_000}
		got, err := Solve(c.in, opts)
		if err != nil {
			t.Fatalf("%s[%d]: %v", c.name, ci, err)
		}
		want := oracleSolve(t, c.in, opts)
		if got.Nodes != want.Nodes {
			t.Fatalf("%s[%d]: node counts diverged: %d, oracle %d", c.name, ci, got.Nodes, want.Nodes)
		}
		if got.Proven != want.Proven ||
			math.Float64bits(got.Period) != math.Float64bits(want.Period) ||
			got.Mapping.String() != want.Mapping.String() {
			t.Fatalf("%s[%d]: results diverged: (%v, %v, %v), oracle (%v, %v, %v)",
				c.name, ci, got.Period, got.Proven, got.Mapping, want.Period, want.Proven, want.Mapping)
		}
		if ci%3 != 0 {
			continue // parallel legs on a corpus subset keep the test quick
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := Solve(c.in, optsWithWorkers(opts, workers))
			if err != nil {
				t.Fatalf("%s[%d] workers=%d: %v", c.name, ci, workers, err)
			}
			if par.Proven != want.Proven ||
				math.Float64bits(par.Period) != math.Float64bits(want.Period) ||
				par.Mapping.String() != want.Mapping.String() {
				t.Fatalf("%s[%d] workers=%d: (%v, %v, %v), oracle sequential (%v, %v, %v)",
					c.name, ci, workers, par.Period, par.Proven, par.Mapping, want.Period, want.Proven, want.Mapping)
			}
		}
	}
}

// TestIncrementalBoundNodeIdentityRelaxForced repeats the sequential
// node-identity gate on the one-to-one corpus, where the assignment bound
// runs off the landArg the bound's landing pass fills: the fused
// MinLandingAt argmin must feed its collision filter the exact machines
// the filtered PriceAllAt scan would.
func TestIncrementalBoundNodeIdentityRelaxForced(t *testing.T) {
	for ci, c := range oneToOneCorpus(t) {
		opts := Options{Rule: c.rule, MaxNodes: 4_000_000}
		got, err := Solve(c.in, opts)
		if err != nil {
			t.Fatalf("%s[%d]: %v", c.name, ci, err)
		}
		want := oracleSolve(t, c.in, opts)
		if got.Nodes != want.Nodes ||
			math.Float64bits(got.Period) != math.Float64bits(want.Period) ||
			got.Mapping.String() != want.Mapping.String() {
			t.Fatalf("%s[%d]: one-to-one runs diverged: (%d nodes, %v), oracle (%d nodes, %v)",
				c.name, ci, got.Nodes, got.Period, want.Nodes, want.Period)
		}
	}
}

// boundWalker drives a searcher down and up an explicit assign stack the
// way dfs does — rule bookkeeping, pricer and placed-work push in the same
// order — so tests can stop at arbitrary interior nodes.
type boundWalker struct {
	s     *searcher
	stack []walkFrame
}

type walkFrame struct {
	u    int
	spec app.TypeID
	used bool
}

func (w *boundWalker) depth() int { return len(w.stack) }

func (w *boundWalker) prefix() []platform.MachineID {
	p := make([]platform.MachineID, len(w.stack))
	for j, f := range w.stack {
		p[j] = platform.MachineID(f.u)
	}
	return p
}

func (w *boundWalker) descend(u int) {
	s, k := w.s, len(w.stack)
	i := s.order[k]
	w.stack = append(w.stack, walkFrame{u: u, spec: s.spec[u], used: s.used[u]})
	s.spec[u] = s.in.App.Type(i)
	s.used[u] = true
	s.occupy(u)
	_ = s.pr.Assign(i, platform.MachineID(u))
	if s.wAt != nil {
		s.placeWork(k, i, u)
	}
}

func (w *boundWalker) backtrack() {
	s, k := w.s, len(w.stack)-1
	f := w.stack[k]
	w.stack = w.stack[:k]
	s.pr.Unassign(s.order[k])
	s.vacate(f.u)
	s.spec[f.u], s.used[f.u] = f.spec, f.used
}

// checkMaintained recomputes the ingredients kept up to date on assign at
// depth k — placed-work rows 0..k, dedicated counts, penalty rows — and
// requires the searcher's to match bit for bit.
func checkMaintained(t testing.TB, s *searcher, k int, where string) {
	t.Helper()
	m, p := s.m, s.in.P()
	if s.wAt != nil {
		want := make([]float64, p)
		for d := 0; d <= k; d++ {
			if d > 0 {
				i := s.order[d-1]
				want[s.in.App.Type(i)] += float64(s.pr.X(i) * s.in.Platform.Time(i, s.pr.Machine(i)))
			}
			for ty := 0; ty < p; ty++ {
				if got := s.wAt[d*p+ty]; math.Float64bits(got) != math.Float64bits(want[ty]) {
					t.Fatalf("%s: wAt[depth %d][type %d] = %v, re-summed %v", where, d, ty, got, want[ty])
				}
			}
		}
	}
	rows := 1
	if s.rule == core.Specialized {
		rows = p
		ded := make([]int, p)
		for u := 0; u < m; u++ {
			if s.nOn[u] > 0 && s.spec[u] != noType {
				ded[s.spec[u]]++
			}
		}
		for ty := range ded {
			if s.ded[ty] != ded[ty] {
				t.Fatalf("%s: ded[%d] = %d, recounted %d", where, ty, s.ded[ty], ded[ty])
			}
		}
	}
	if len(s.pen) != rows*m {
		t.Fatalf("%s: %d penalty cells, want %d rows of %d", where, len(s.pen), rows, m)
	}
	for r := 0; r < rows; r++ {
		for u := 0; u < m; u++ {
			want := 0.0
			if !s.feasible(u, app.TypeID(r)) {
				want = math.Inf(1)
			}
			if got := s.pen[r*m+u]; got != want {
				t.Fatalf("%s: pen[row %d][M%d] = %v, feasible() says %v", where, r, u+1, got, want)
			}
		}
	}
}

// checkPristine requires a searcher with nothing placed to carry no rule
// state: every machine empty, undedicated, unused and penalty-free.
func checkPristine(t testing.TB, s *searcher, where string) {
	t.Helper()
	for u := 0; u < s.m; u++ {
		if s.nOn[u] != 0 || s.spec[u] != noType || s.used[u] {
			t.Fatalf("%s: machine %d not restored (nOn %d, spec %d, used %v)", where, u, s.nOn[u], s.spec[u], s.used[u])
		}
	}
	for c, v := range s.pen {
		if v != 0 {
			t.Fatalf("%s: pen[%d] = %v after full unwind", where, c, v)
		}
	}
	for ty, v := range s.ded {
		if v != 0 {
			t.Fatalf("%s: ded[%d] = %d after full unwind", where, ty, v)
		}
	}
}

// FuzzBoundDelta: along any feasible assign/backtrack walk, the prune
// decision must act on the oracle's bound bits, and the ingredients kept up
// to date must equal a fresh recomputation, at every node, whether the
// node was reached by walking or by a push replay of its prefix.
func FuzzBoundDelta(f *testing.F) {
	f.Add([]byte("bound-delta-incremental"))
	f.Add([]byte{6, 3, 2, 0, 120, 40, 1, 90, 0, 55, 2, 80, 1, 70, 3, 1, 2, 0, 1, 2})
	f.Add([]byte{5, 5, 2, 1, 30, 60, 90, 120, 150, 180, 210, 240, 14, 3, 1})
	f.Add([]byte("\x07\x04\x01\x01chain-descend-backtrack\x22"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
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
		w := &boundWalker{s: sv.newSearcher(nil)}
		o := newBoundOracle(w.s)
		replay := sv.newSearcher(nil)
		n := in.N()
		inf := math.Inf(1)
		check := func(step int) {
			s, k := w.s, w.depth()
			full := o.bound(k, inf, inf)
			checkDecision(t, s, k, full, "walk")
			// The last call crossed no threshold at a finite bound, so it
			// wrote every position; at a +Inf bound it stopped at the first
			// infeasible landing, whose +Inf prunes even at +Inf thresholds.
			// landArg is this node's argmin only under the assignment bound
			// (elsewhere it is a hint) and is never written with -1.
			for j := k; j < n; j++ {
				if math.Float64bits(s.dlb[j]) != math.Float64bits(o.dlb[j]) {
					t.Fatalf("step %d depth %d: dlb[%d] = %v, oracle %v", step, k, j, s.dlb[j], o.dlb[j])
				}
				if math.IsInf(o.minLand[j], 1) {
					break
				}
				if s.ab != nil && s.landArg[j] != o.landArg[j] {
					t.Fatalf("step %d depth %d: landArg[%d] = %d, oracle %d", step, k, j, s.landArg[j], o.landArg[j])
				}
			}
			checkMaintained(t, s, k, "walk")
			if k < n {
				// Early exits: a threshold equal to one of the node's
				// landings, tested as the local (>=) and the shared (>)
				// incumbent.
				thr := o.minLand[k+step%(n-k)]
				if math.IsInf(full, 1) {
					thr = o.minLand[k]
				}
				for _, th := range [][2]float64{{thr, inf}, {inf, thr}} {
					lbE := o.bound(k, th[0], th[1])
					want := lbE >= th[0] || lbE > th[1]
					if got := s.prunes(k, th[0], th[1]); got != want {
						t.Fatalf("step %d depth %d thresholds %v: prunes = %v, oracle bound %v", step, k, th, got, lbE)
					}
				}
			}
			// The same node by push replay, then back to pristine by pop.
			pfx := w.prefix()
			replay.push(pfx)
			checkDecision(t, replay, k, full, "replay")
			checkMaintained(t, replay, k, "replay")
			replay.pop(pfx)
			checkPristine(t, replay, "pop")
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
		checkPristine(t, w.s, "walk unwind")
	})
}

// TestLowerBoundEarlyExitContract pins the early-exit invariant of the
// prune decision from three sides. From the root: when a landing prunes,
// the dlb suffix past the exit point is untouched — poisoned sentinels
// survive, and landArg's too under the assignment bound — and a call that
// prunes nothing afterwards fills everything. One level down: the top exit
// (current maximum alone) and a mid-loop exit prune and leave the
// ingredients kept up to date on assign intact. A stale hint: a landing
// hint on a machine whose penalty row turned +Inf prices +Inf and falls
// back to the full scan.
func TestLowerBoundEarlyExitContract(t *testing.T) {
	inf := math.Inf(1)
	t.Run("from-scratch", func(t *testing.T) {
		for _, c := range []struct {
			rule core.Rule
			in   *core.Instance
		}{
			{core.Specialized, symmetricInstanceF(t, 10, 2, 5, 3, 0.005, 0.05, 404)},
			{core.OneToOne, symmetricInstanceF(t, 8, 2, 10, 3, 0.005, 0.05, 404)},
		} {
			sv, err := newSolver(c.in, Options{Rule: c.rule})
			if err != nil {
				t.Fatal(err)
			}
			s := sv.newSearcher(nil)
			n := len(s.order)
			o := newBoundOracle(s)
			// The root's first landing as the threshold forces the exit at
			// j=0.
			full := o.bound(0, inf, inf)
			if math.IsInf(full, 1) {
				t.Fatalf("%v: root bound is infinite; pick another instance", c.rule)
			}
			thr := o.minLand[0]
			if thr <= 0 {
				t.Fatalf("%v: first landing %v is not positive", c.rule, thr)
			}
			// Hints must name a machine; only the assignment bound's
			// per-node argmins can be poisoned.
			for j := range s.dlb {
				s.dlb[j] = math.NaN() // poison: a write would be visible
				if s.ab != nil {
					s.landArg[j] = -7
				}
			}
			if !s.prunes(0, thr, inf) {
				t.Fatalf("%v: the first landing %v does not prune at itself", c.rule, thr)
			}
			for j := 1; j < n; j++ {
				if !math.IsNaN(s.dlb[j]) || (s.ab != nil && s.landArg[j] != -7) {
					t.Fatalf("%v: early exit filled position %d past the exit point", c.rule, j)
				}
			}
			if s.prunes(0, math.Nextafter(full, inf), inf) {
				t.Fatalf("%v: root prunes above its bound %v", c.rule, full)
			}
			for j := 0; j < n; j++ {
				if math.IsNaN(s.dlb[j]) || (s.ab != nil && s.landArg[j] == -7) {
					t.Fatalf("%v: full fill left position %d poisoned", c.rule, j)
				}
			}
		}
	})

	t.Run("incremental", func(t *testing.T) {
		in := symmetricInstanceF(t, 10, 2, 5, 3, 0.005, 0.05, 404)
		sv, err := newSolver(in, Options{Rule: core.Specialized})
		if err != nil {
			t.Fatal(err)
		}
		s := sv.newSearcher(nil)
		o := newBoundOracle(s)
		if lb := o.bound(0, inf, inf); math.IsInf(lb, 1) {
			t.Fatalf("root bound is infinite: %v", lb)
		}
		w := &boundWalker{s: s}
		w.descend(o.landArg[0])
		checkMaintained(t, s, 1, "descend")

		// Top-of-bound exit (the common pruned-node path): the current
		// maximum already meets the threshold, so the walk never starts.
		if !s.prunes(1, s.pr.Max(), s.pr.Max()) {
			t.Fatalf("top exit: the current maximum %v does not prune at itself", s.pr.Max())
		}
		checkMaintained(t, s, 1, "top exit")

		// Mid-loop exit at the first suffix position, with the threshold
		// taken from the oracle at the same node.
		full := o.bound(1, inf, inf)
		thr := o.minLand[1]
		if thr <= s.pr.Max() {
			t.Fatalf("seed does not exercise the mid-loop exit: first landing %v under current max %v", thr, s.pr.Max())
		}
		if !s.prunes(1, thr, inf) {
			t.Fatalf("mid-loop exit: the first landing %v does not prune at itself", thr)
		}
		checkMaintained(t, s, 1, "mid-loop exit")

		// The decision afterwards still acts on the oracle's bits.
		checkDecision(t, s, 1, full, "after exits")
		w.backtrack()
		checkPristine(t, s, "backtrack")
	})

	t.Run("stale-hint", func(t *testing.T) {
		in := symmetricInstanceF(t, 10, 2, 5, 3, 0.005, 0.05, 404)
		sv, err := newSolver(in, Options{Rule: core.Specialized})
		if err != nil {
			t.Fatal(err)
		}
		s := sv.newSearcher(nil)
		o := newBoundOracle(s)
		if lb := o.bound(0, inf, inf); math.IsInf(lb, 1) {
			t.Fatalf("root bound is infinite: %v", lb)
		}
		// A later position of another type than order[0], hinted at its
		// root argmin; placing order[0] there closes that machine to it.
		j, ty0 := -1, in.App.Type(s.order[0])
		for jj := 1; jj < len(s.order); jj++ {
			if in.App.Type(s.order[jj]) != ty0 {
				j = jj
				break
			}
		}
		if j < 0 {
			t.Fatal("every task has the root's type; pick another instance")
		}
		u := o.landArg[j]
		s.landArg[j] = u
		w := &boundWalker{s: s}
		w.descend(u)
		full := o.bound(1, inf, inf)
		if math.IsInf(full, 1) {
			t.Fatalf("depth-1 bound is infinite; pick another instance")
		}
		ty := int(in.App.Type(s.order[j]))
		if got := s.pr.LandingOn(s.order[j], o.dlb[j], s.pen[ty*s.m:ty*s.m+s.m], u); !math.IsInf(got, 1) {
			t.Fatalf("hint M%d of position %d is still open after the root took it: %v", u+1, j, got)
		}
		if s.prunes(1, inf, inf) {
			t.Fatalf("depth 1 prunes at +Inf thresholds under a finite bound %v", full)
		}
		if s.landArg[j] != o.landArg[j] {
			t.Fatalf("stale hint M%d at position %d was not rescanned: hint M%d, oracle argmin M%d",
				u+1, j, s.landArg[j]+1, o.landArg[j]+1)
		}
		checkDecision(t, s, 1, full, "stale hint")
	})
}
