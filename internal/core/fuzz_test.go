// Native Go fuzz targets for the evaluation engine. A byte string decodes
// into a small instance (chain or random in-tree, typed execution times,
// arbitrary failure rates) plus, for FuzzEvaluatorDelta, a mutation script;
// the incremental Evaluator is cross-checked against the from-scratch
// evaluation after every scripted step. Seed corpus lives in
// testdata/fuzz/<Target>/ and in the f.Add calls below.
//
// Smoke-run locally or in CI with:
//
//	go test -run='^$' -fuzz=FuzzEvaluatorDelta -fuzztime=10s ./internal/core
package core_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/platform"
)

// byteProgram reads a byte string as an endless tape (wrapping around), so
// that any input long enough to seed the sizes decodes to a valid program
// and the fuzzer never wastes executions on rejected lengths.
type byteProgram struct {
	data []byte
	pos  int
}

func (p *byteProgram) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[p.pos%len(p.data)]
	p.pos++
	return b
}

func (p *byteProgram) intn(n int) int { return int(p.next()) % n }

// decodeInstance builds a small instance from the tape: n in 2..15 tasks,
// m in 1..9 machines (the paper's exact-solver regime; the caps were
// n <= 8, m <= 6 until the corpus stabilized), chain or random in-tree
// shape, typed execution times in [1,256] ms and failure rates in
// [0, 200/256).
func decodeInstance(p *byteProgram) (*core.Instance, error) {
	n := 2 + p.intn(14)
	m := 1 + p.intn(9)
	ntypes := 1 + p.intn(n)
	shape := p.next() % 2

	tasks := make([]app.Task, n)
	for i := range tasks {
		tasks[i] = app.Task{ID: app.TaskID(i), Type: app.TypeID(p.intn(ntypes))}
	}
	var deps []app.Dep
	for i := 0; i < n-1; i++ {
		succ := i + 1
		if shape == 1 {
			// Random in-tree: any later task may consume i's output; the
			// single root n-1 is guaranteed because every i feeds forward.
			succ = i + 1 + p.intn(n-1-i)
		}
		deps = append(deps, app.Dep{From: app.TaskID(i), To: app.TaskID(succ)})
	}
	a, err := app.New(tasks, deps)
	if err != nil {
		return nil, err
	}

	// Typed execution times: one row per type, shared by its tasks, as the
	// model requires (platform.CheckTypedTimes).
	wByType := make([][]float64, ntypes)
	for ty := range wByType {
		wByType[ty] = make([]float64, m)
		for u := range wByType[ty] {
			wByType[ty][u] = 1 + float64(p.next())
		}
	}
	w := make([][]float64, n)
	f := make([][]float64, n)
	for i := 0; i < n; i++ {
		w[i] = append([]float64(nil), wByType[tasks[i].Type]...)
		f[i] = make([]float64, m)
		for u := range f[i] {
			f[i][u] = float64(p.next()%200) / 256
		}
	}
	pl, err := platform.New(w)
	if err != nil {
		return nil, err
	}
	fm, err := failure.New(f)
	if err != nil {
		return nil, err
	}
	return core.NewInstance(a, pl, fm)
}

// FuzzProductCounts cross-checks the from-scratch evaluation functions
// against each other and against an Evaluator replaying the same mapping:
// ProductCounts vs PartialProductCounts, Evaluate's period/critical versus
// its own machine periods, PeriodE vs Period, and incremental vs full.
func FuzzProductCounts(f *testing.F) {
	f.Add([]byte("microfab"))
	f.Add([]byte{3, 2, 1, 0, 200, 30, 40, 50, 60, 70, 80, 90, 100})
	f.Add([]byte{7, 5, 3, 1, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte("\x08\x06\x04\x01chains-and-trees\xff\x00\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &byteProgram{data: data}
		in, err := decodeInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		// A complete mapping from the tape.
		mp := core.NewMapping(in.N())
		for i := 0; i < in.N(); i++ {
			mp.Assign(app.TaskID(i), platform.MachineID(p.intn(in.M())))
		}
		x, err := core.ProductCounts(in, mp)
		if err != nil {
			t.Fatalf("ProductCounts on a complete mapping: %v", err)
		}
		partial := core.PartialProductCounts(in, mp)
		for i := range x {
			if x[i] < 1 || math.IsInf(x[i], 0) || math.IsNaN(x[i]) {
				t.Fatalf("x[%d] = %v, want finite >= 1", i, x[i])
			}
			if x[i] != partial[i] {
				t.Fatalf("x[%d]: full %v != partial %v on a complete mapping", i, x[i], partial[i])
			}
		}
		ev, err := core.Evaluate(in, mp)
		if err != nil {
			t.Fatal(err)
		}
		maxP, crit := 0.0, platform.NoMachine
		for u, pu := range ev.MachinePeriods {
			if pu > maxP {
				maxP, crit = pu, platform.MachineID(u)
			}
		}
		if ev.Period != maxP || ev.Critical != crit {
			t.Fatalf("Evaluate period/critical (%v, %d) inconsistent with its own MachinePeriods (%v, %d)", ev.Period, ev.Critical, maxP, crit)
		}
		pe, err := core.PeriodE(in, mp)
		if err != nil || pe != ev.Period {
			t.Fatalf("PeriodE = (%v, %v), want (%v, nil)", pe, err, ev.Period)
		}
		inc, err := core.NewEvaluatorFrom(in, mp)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, in, mp, inc, "replayed mapping")
	})
}

// FuzzEvaluatorDelta decodes an instance plus a mutation script and
// cross-checks the incremental engine against the from-scratch evaluation
// after every step — the fuzz twin of TestEvaluatorDifferential.
func FuzzEvaluatorDelta(f *testing.F) {
	f.Add([]byte("incremental-evaluator"))
	f.Add([]byte{5, 3, 2, 1, 100, 100, 100, 0, 1, 2, 0, 1, 0, 2, 1, 1, 2, 0, 2, 2, 1, 0, 0, 1})
	f.Add([]byte{8, 6, 1, 0, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0})
	f.Add([]byte("\x04\x02\x02\x01push\x00pop\xffpush\x01pop\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &byteProgram{data: data}
		in, err := decodeInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		ev := core.NewEvaluator(in)
		mp := core.NewMapping(in.N())
		steps := 8 + p.intn(56)
		for s := 0; s < steps; s++ {
			op := p.next()
			i := app.TaskID(p.intn(in.N()))
			var desc string
			if op%3 == 2 {
				ev.Unassign(i)
				mp.Unassign(i)
				desc = fmt.Sprintf("unassign T%d", int(i)+1)
			} else {
				u := platform.MachineID(p.intn(in.M()))
				if err := ev.Assign(i, u); err != nil {
					t.Fatal(err)
				}
				mp.Assign(i, u)
				desc = fmt.Sprintf("assign T%d -> M%d", int(i)+1, int(u)+1)
			}
			checkAgainstReference(t, in, mp, ev, fmt.Sprintf("step %d (%s)", s, desc))
		}
	})
}

// naiveRuleViolation is the brute-force oracle for Mapping.CheckRule: scan
// every assigned task pair sharing a machine.
func naiveRuleViolation(a *app.Application, mp *core.Mapping, rule core.Rule) bool {
	for i := 0; i < mp.Len(); i++ {
		ui := mp.Machine(app.TaskID(i))
		if ui == platform.NoMachine {
			continue
		}
		for j := i + 1; j < mp.Len(); j++ {
			if mp.Machine(app.TaskID(j)) != ui {
				continue
			}
			switch rule {
			case core.OneToOne:
				return true
			case core.Specialized:
				if a.Type(app.TaskID(i)) != a.Type(app.TaskID(j)) {
					return true
				}
			}
		}
	}
	return false
}

// FuzzCheckRule decodes an instance plus a mapping (with holes) and
// cross-checks Mapping.CheckRule against the brute-force pair oracle for
// all three rules; it then drives every registered heuristic on the
// instance and enforces the feasibility-guard contract: whenever the
// types present fit on the machines (p <= m) the heuristic must produce a
// complete, rule-valid, finitely-priced mapping, and when they do not it
// must fail with an error instead of returning a broken mapping.
func FuzzCheckRule(f *testing.F) {
	f.Add([]byte("check-rule"))
	f.Add([]byte{9, 4, 3, 0, 120, 30, 40, 55, 60, 70, 85, 90, 5, 0, 1, 2, 3, 4, 0xff, 7})
	f.Add([]byte{15, 9, 5, 1, 200, 199, 198, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("\x0c\x07\x02\x00guards-and-holes\x00\xff\x10"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &byteProgram{data: data}
		in, err := decodeInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		mp := core.NewMapping(in.N())
		for i := 0; i < in.N(); i++ {
			// Roughly 1 in 5 tasks stays unassigned: CheckRule must skip
			// holes rather than crash or count them as conflicts.
			if p.next()%5 == 0 {
				continue
			}
			mp.Assign(app.TaskID(i), platform.MachineID(p.intn(in.M())))
		}
		for _, rule := range []core.Rule{core.OneToOne, core.Specialized, core.GeneralRule} {
			err := mp.CheckRule(in.App, rule)
			if naive := naiveRuleViolation(in.App, mp, rule); (err == nil) == naive {
				t.Fatalf("CheckRule(%v) = %v, oracle says violation=%v on %s", rule, err, naive, mp)
			}
		}

		// Feasibility guards: count the types actually present.
		typesPresent := 0
		for _, c := range in.App.TypeCounts() {
			if c > 0 {
				typesPresent++
			}
		}
		rng := gen.RNG(int64(p.next()))
		for _, h := range heuristics.All() {
			got, err := h.Fn(in, rng, heuristics.Options{})
			if typesPresent > in.M() {
				if err == nil {
					t.Fatalf("%s succeeded with %d types on %d machines", h.Name, typesPresent, in.M())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s failed on a feasible instance (%d types, %d machines): %v", h.Name, typesPresent, in.M(), err)
			}
			if !got.Complete() {
				t.Fatalf("%s returned an incomplete mapping", h.Name)
			}
			if err := got.CheckRule(in.App, core.Specialized); err != nil {
				t.Fatalf("%s broke the specialization rule: %v", h.Name, err)
			}
			period, err := core.PeriodE(in, got)
			if err != nil || math.IsInf(period, 0) || math.IsNaN(period) || period <= 0 {
				t.Fatalf("%s mapping prices to (%v, %v)", h.Name, period, err)
			}
		}
	})
}

// FuzzSplitDelta decodes an instance plus a share-mutation script and
// cross-checks the incremental SplitEvaluator against from-scratch
// EvaluateSplit after every SetShares — the fuzz twin of
// TestSplitEvaluatorDifferential.
func FuzzSplitDelta(f *testing.F) {
	f.Add([]byte("incremental-split-evaluator"))
	f.Add([]byte{6, 4, 2, 0, 90, 110, 130, 150, 3, 1, 0, 2, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Add([]byte("\x0a\x05\x03\x01water-filling\x02\x04\x08\x10\x20\x40\x80"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &byteProgram{data: data}
		in, err := decodeInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		n, m := in.N(), in.M()
		// decodeRow reads a share row off the tape: 1..3 machines with
		// weights in 1..256, normalized. Weights are exact powers of the
		// byte value so rows exercise wide magnitude ranges.
		decodeRow := func() []float64 {
			row := make([]float64, m)
			k := 1 + p.intn(3)
			if k > m {
				k = m
			}
			total := 0.0
			for j := 0; j < k; j++ {
				u := p.intn(m)
				w := 1 + float64(p.next())
				row[u] += w
				total += w
			}
			for u := range row {
				row[u] /= total
			}
			return row
		}
		split := core.NewSplitMapping(n, m)
		for i := 0; i < n; i++ {
			row := decodeRow()
			for u, v := range row {
				split.SetShare(app.TaskID(i), platform.MachineID(u), v)
			}
		}
		se, err := core.NewSplitEvaluator(in, split)
		if err != nil {
			// The decoded shares can legitimately be unproductive (all
			// weight on always-failing machines); the constructor must say
			// so, not crash.
			return
		}
		checkSplitAgainstReference(t, in, se, "initial")
		steps := 4 + p.intn(28)
		for s := 0; s < steps; s++ {
			i := app.TaskID(p.intn(n))
			if err := se.SetShares(i, decodeRow()); err != nil {
				continue // unproductive row rejected: engine must be unchanged
			}
			checkSplitAgainstReference(t, in, se, fmt.Sprintf("step %d (T%d)", s, int(i)+1))
		}
	})
}

// FuzzTrialAll decodes an instance plus a mutation script and, after every
// step, cross-checks the batch kernels against their scalar counterparts:
// the Evaluator.TrialAll row must be bit-equal to m Trial calls at every
// partial state the script reaches, and a root-first Pricer walk steered by
// the tape must find PriceAll bit-equal to m Pricer.Trial calls with Assign
// landing on exactly the batch row's bits, MinLandingAt equal to the
// row's strict-< minimum over the cells each rule's penalty row admits and
// LandingOn equal to each cell plus its penalty —
// the fuzz twin of TestTrialAllDifferential, TestPriceAllDifferential and
// TestMinLandingAtBitEqual.
func FuzzTrialAll(f *testing.F) {
	f.Add([]byte("batch-kernels"))
	f.Add([]byte{6, 5, 2, 1, 80, 90, 100, 110, 0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{11, 8, 3, 0, 160, 20, 40, 60, 80, 100, 120, 140, 7, 0, 6, 1, 5, 2, 4, 3})
	f.Add([]byte("\x07\x04\x03\x00soa-rows\x00\xff\x01\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &byteProgram{data: data}
		in, err := decodeInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		ev := core.NewEvaluator(in)
		steps := 8 + p.intn(40)
		for s := 0; s < steps; s++ {
			op := p.next()
			i := app.TaskID(p.intn(in.N()))
			var desc string
			if op%3 == 2 {
				ev.Unassign(i)
				desc = fmt.Sprintf("unassign T%d", int(i)+1)
			} else {
				u := platform.MachineID(p.intn(in.M()))
				if err := ev.Assign(i, u); err != nil {
					t.Fatal(err)
				}
				desc = fmt.Sprintf("assign T%d -> M%d", int(i)+1, int(u)+1)
			}
			checkTrialAllBitEqual(t, in, ev, fmt.Sprintf("step %d (%s)", s, desc))
		}

		// Pricer leg: a root-first push walk with tape-chosen machines.
		pr := core.NewPricer(in)
		out := make([]float64, in.M())
		for d, i := range in.App.ReverseTopological() {
			checkPriceAllBitEqual(t, in, pr, fmt.Sprintf("pricer push %d", d))
			if !pr.PriceAll(i, out) {
				t.Fatalf("pricer push %d: demand of T%d unknown in root-first order", d, int(i)+1)
			}
			dem, _ := pr.Demand(i)
			for _, rule := range []core.Rule{core.Specialized, core.OneToOne, core.GeneralRule} {
				checkMinLandingAt(t, pr, i, dem, penaltyRow(in, pr, rule, in.App.Type(i)),
					fmt.Sprintf("pricer push %d rule %v", d, rule))
			}
			u := platform.MachineID(p.intn(in.M()))
			promised := out[u]
			if err := pr.Assign(i, u); err != nil {
				t.Fatal(err)
			}
			if got := pr.Load(u); got != promised {
				t.Fatalf("pricer push %d: PriceAll promised %v, Assign produced %v", d, promised, got)
			}
		}
		checkPriceAllBitEqual(t, in, pr, "pricer complete")
	})
}

// FuzzPeriodErrors drives the error-classification contract on decoded
// instances: PeriodE must wrap ErrIncompleteMapping exactly for mappings
// with holes and return genuine errors for out-of-range machines.
func FuzzPeriodErrors(f *testing.F) {
	f.Add([]byte("err-classes"))
	f.Add([]byte{4, 3, 2, 1, 50, 60, 70, 80, 90, 0xff, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &byteProgram{data: data}
		in, err := decodeInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		mp := core.NewMapping(in.N())
		holes := 0
		for i := 0; i < in.N(); i++ {
			if p.next()%4 == 0 {
				holes++
				continue
			}
			mp.Assign(app.TaskID(i), platform.MachineID(p.intn(in.M())))
		}
		_, err = core.PeriodE(in, mp)
		switch {
		case holes > 0:
			if !errors.Is(err, core.ErrIncompleteMapping) {
				t.Fatalf("%d holes, err = %v, want ErrIncompleteMapping", holes, err)
			}
		case err != nil:
			t.Fatalf("complete in-range mapping failed: %v", err)
		}
	})
}
