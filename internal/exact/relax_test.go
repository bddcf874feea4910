// Admissibility and dominance gates for the one-to-one bottleneck-assignment
// bound (relax.go): a native fuzz target cross-checks it against the
// exhaustive completion oracle exactly like FuzzExactBound does for the
// combinatorial bound, and the deterministic tests pin that the bound
// (a) strengthens the combinatorial bound somewhere, (b) never grows a
// sequential proof, (c) leaves every proven result byte-identical, for any
// worker count, on or off, and (d) is a pure function of the node.
//
// Smoke-run the fuzzer locally or in CI with:
//
//	go test -run='^$' -fuzz=FuzzAssignmentBound -fuzztime=10s ./internal/exact
package exact

import (
	"math"
	"testing"

	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// assignAt replays a prefix on a fresh one-to-one searcher and runs the
// prune decision at +Inf thresholds. Under the assignment bound it scans
// every landing, and at a node with a free machine per unplaced task no
// landing is +Inf, so the call fills the per-node scratch the assignment
// bound reads (dlb, landArg). assignmentBound is then directly callable
// for the replayed depth.
func assignAt(t testing.TB, in *core.Instance, prefix []platform.MachineID) *searcher {
	t.Helper()
	sv, err := newSolver(in, Options{Rule: core.OneToOne})
	if err != nil {
		t.Fatal(err)
	}
	s := sv.newSearcher(nil)
	s.push(prefix)
	s.prunes(len(prefix), math.Inf(1), math.Inf(1))
	return s
}

// combinatorialAt is the oracle's bound with the assignment bound
// ablated — the bound the one-to-one relaxation has to beat — checked
// against the ablated searcher's decision like boundAt.
func combinatorialAt(t testing.TB, in *core.Instance, prefix []platform.MachineID) float64 {
	t.Helper()
	sv, err := newSolver(in, Options{Rule: core.OneToOne, DisableAssignBound: true})
	if err != nil {
		t.Fatal(err)
	}
	s := sv.newSearcher(nil)
	s.push(prefix)
	lb := newBoundOracle(s).bound(len(prefix), math.Inf(1), math.Inf(1))
	checkDecision(t, s, len(prefix), lb, "combinatorialAt")
	return lb
}

// oneToOneCorpus is the one-to-one slice of the differential corpus.
func oneToOneCorpus(t testing.TB) []corpusCase {
	var cs []corpusCase
	for _, c := range differentialCorpus(t) {
		if c.rule == core.OneToOne {
			cs = append(cs, c)
		}
	}
	return cs
}

// otoN18 is the one-to-one benchmark case oto-n18-m20-s3:
// mfgen -n 18 -p 18 -m 20 -fmax 0.1 -seed 3 -task-only.
func otoN18(t testing.TB) *core.Instance {
	t.Helper()
	pr := gen.Default(18, 18, 20)
	pr.FMax = 0.1
	pr.TaskOnlyFailures = true
	in, err := gen.Chain(pr, gen.RNG(3))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// FuzzAssignmentBound: the bottleneck-assignment bound of any one-to-one
// partial assignment must never exceed the optimum over its completions
// (+Inf claims the node has none at all). Inputs that decode to more tasks
// than machines admit no one-to-one mapping and are skipped.
func FuzzAssignmentBound(f *testing.F) {
	// Each seed decodes to n <= m and a node where two unplaced tasks share
	// their cheapest machine, so the matcher runs.
	f.Add([]byte{16, 38, 10, 25, 209, 37, 83})
	f.Add([]byte{247, 138, 113, 28, 197, 157})
	f.Add([]byte{212, 99, 43, 170, 255, 146})
	f.Add([]byte{113, 18, 250, 237, 12, 86})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &fuzzTape{data: data}
		in, err := decodeBoundInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		if in.N() > in.M() {
			return
		}
		order := in.App.ReverseTopological()
		prefix := feasiblePrefix(in, core.OneToOne, order, p.intn(in.N()+1), func(int) int { return int(p.next()) })

		s := assignAt(t, in, prefix)
		ab, ok := s.assignmentBound(len(prefix))
		if !ok {
			return
		}
		opt, done := completionOptimum(in, core.OneToOne, order, prefix, 2_000_000)
		if !done {
			return // oracle budget hit; nothing to assert
		}
		if ab > opt*(1+1e-9) {
			t.Fatalf("inadmissible assignment bound: %v exceeds completion optimum %v (prefix %v, n=%d m=%d)",
				ab, opt, prefix, in.N(), in.M())
		}
	})
}

// TestRelaxationTiersAdmissible sweeps the one-to-one corpus at several
// prefix depths, checking the assignment bound against the exhaustive
// oracle and — so the collision filter can't rot into vacuity — that it
// strictly improves on the combinatorial bound somewhere in the sweep.
func TestRelaxationTiersAdmissible(t *testing.T) {
	wins := 0
	for ci, c := range oneToOneCorpus(t) {
		order := c.in.App.ReverseTopological()
		for _, depth := range []int{0, 1, c.in.N() / 2} {
			prefix := feasiblePrefix(c.in, c.rule, order, depth, func(j int) int { return ci*31 + j*7 })
			s := assignAt(t, c.in, prefix)
			opt, done := completionOptimum(c.in, c.rule, order, prefix, 2_000_000)
			if !done {
				continue
			}
			ab, ok := s.assignmentBound(len(prefix))
			if !ok {
				continue
			}
			if ab > opt*(1+1e-9) {
				t.Fatalf("%s[%d] depth %d: assignment bound %v > optimum %v", c.name, ci, depth, ab, opt)
			}
			if ab > combinatorialAt(t, c.in, prefix) {
				wins++
			}
		}
	}
	if wins == 0 {
		t.Fatal("the assignment bound never beat the combinatorial bound on the corpus — the collision filter is vacuous")
	}
	t.Logf("assignment bound strictly improved the combinatorial bound %d times", wins)
}

// TestRelaxationBoundDominates: on the one-to-one corpus, a sequential
// proof with the assignment bound explores no more nodes than without it,
// returns byte-identical results either way, and parallel runs with the
// bound stay byte-identical to the sequential ones.
func TestRelaxationBoundDominates(t *testing.T) {
	corpus := oneToOneCorpus(t)
	if len(corpus) < 10 {
		t.Fatalf("one-to-one corpus has %d instances, the gate requires >= 10", len(corpus))
	}
	improved := 0
	for ci, c := range corpus {
		on := Options{Rule: c.rule, MaxNodes: 4_000_000, Workers: 1}
		off := on
		off.DisableAssignBound = true

		comb, err := Solve(c.in, off)
		if err != nil {
			t.Fatalf("%s[%d]: bound off: %v", c.name, ci, err)
		}
		both, err := Solve(c.in, on)
		if err != nil {
			t.Fatalf("%s[%d]: bound on: %v", c.name, ci, err)
		}
		if !comb.Proven || !both.Proven {
			t.Fatalf("%s[%d]: unproven (off %v, on %v)", c.name, ci, comb.Proven, both.Proven)
		}
		if math.Float64bits(both.Period) != math.Float64bits(comb.Period) {
			t.Fatalf("%s[%d]: period diverged: bound on %v, off %v", c.name, ci, both.Period, comb.Period)
		}
		if both.Mapping.String() != comb.Mapping.String() {
			t.Fatalf("%s[%d]: mapping diverged:\n  on  %v\n  off %v", c.name, ci, both.Mapping, comb.Mapping)
		}
		if both.Nodes > comb.Nodes {
			t.Fatalf("%s[%d]: the assignment bound grew the proof: %d nodes vs %d without", c.name, ci, both.Nodes, comb.Nodes)
		}
		if both.Nodes < comb.Nodes {
			improved++
		}
		par, err := Solve(c.in, optsWithWorkers(on, 3))
		if err != nil {
			t.Fatalf("%s[%d] workers=3: %v", c.name, ci, err)
		}
		if !par.Proven || math.Float64bits(par.Period) != math.Float64bits(both.Period) ||
			par.Mapping.String() != both.Mapping.String() {
			t.Fatalf("%s[%d]: parallel run with the assignment bound diverged from sequential", c.name, ci)
		}
	}
	if improved == 0 {
		t.Fatal("the assignment bound never reduced a corpus proof; the bound is dead")
	}
	t.Logf("the assignment bound reduced the sequential proof on %d/%d corpus cases", improved, len(corpus))
}

// TestOneToOneAssignBoundNodeRatio: the default configuration must prove
// the oto-n18-m20-s3 benchmark case in at most a tenth of the nodes the
// combinatorial bound alone needs, with a byte-identical result.
func TestOneToOneAssignBoundNodeRatio(t *testing.T) {
	if raceEnabled {
		t.Skip("node-ratio measurement is redundant under the race detector")
	}
	in := otoN18(t)
	both, err := Solve(in, Options{Rule: core.OneToOne})
	if err != nil {
		t.Fatal(err)
	}
	comb, err := Solve(in, Options{Rule: core.OneToOne, DisableAssignBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if !both.Proven || !comb.Proven {
		t.Fatalf("unproven (bound %v, comb %v)", both.Proven, comb.Proven)
	}
	if math.Float64bits(both.Period) != math.Float64bits(comb.Period) {
		t.Fatalf("period diverged: bound %v, comb %v", both.Period, comb.Period)
	}
	if both.Mapping.String() != comb.Mapping.String() {
		t.Fatalf("mapping diverged:\n  bound %v\n  comb  %v", both.Mapping, comb.Mapping)
	}
	if both.Nodes*10 > comb.Nodes {
		t.Fatalf("the assignment bound cut the oto-n18 proof by under 10×: %d nodes vs %d", both.Nodes, comb.Nodes)
	}
	t.Logf("oto-n18 proof: %d nodes with the assignment bound vs %d combinatorial-only", both.Nodes, comb.Nodes)
}

// TestOneToOneBoundHistoryFree: the bound value at a node is a pure
// function of the node. At the root of the oto-n18 case, a fresh searcher
// and one that has already expanded more than 10k nodes must return the
// same bits, and that value must beat the combinatorial bound — the
// assignment bound is live from the first node, with no incumbent to
// compare against.
func TestOneToOneBoundHistoryFree(t *testing.T) {
	in := otoN18(t)
	inf := math.Inf(1)
	searcherAt := func(warm bool) *searcher {
		sv, err := newSolver(in, Options{Rule: core.OneToOne})
		if err != nil {
			t.Fatal(err)
		}
		s := sv.newSearcher(nil)
		for warm && s.meter.used <= 10_000 {
			// Each cold pass re-explores the tree and unwinds it to the root.
			s.best, s.bestPeriod = nil, inf
			s.dfs(0)
		}
		return s
	}
	fresh, warm := searcherAt(false), searcherAt(true)
	want := newBoundOracle(fresh).bound(0, inf, inf)
	// The oracle runs the warm searcher's own assignment-bound workspace,
	// and the warm searcher's decision must act on the fresh bound's bits.
	if got := newBoundOracle(warm).bound(0, inf, inf); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("root bound after %d nodes = %v (bits %x), fresh searcher %v (bits %x)",
			warm.meter.used, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	checkDecision(t, warm, 0, want, "warm root")
	if comb := combinatorialAt(t, in, nil); !(want > comb) {
		t.Fatalf("root bound %v does not beat the combinatorial bound %v", want, comb)
	}
}
