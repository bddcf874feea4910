// Native fuzz target for the exact solver's admissible lower bound: a byte
// string decodes into a small instance, a rule, and a random rule-feasible
// partial assignment; the per-node bound is then cross-checked against the
// true completion optimum computed by an independent exhaustive
// enumeration (the admissibility oracle). Any input where the bound
// exceeds the optimum would let the branch and bound prune an optimal
// subtree — the property this target gates.
//
// Seed corpus lives in testdata/fuzz/FuzzExactBound/ and the f.Add calls.
// Smoke-run locally or in CI with:
//
//	go test -run='^$' -fuzz=FuzzExactBound -fuzztime=10s ./internal/exact
package exact

import (
	"math"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/platform"
)

// fuzzTape reads a byte string as an endless wrapping tape, so any input
// long enough to seed the sizes decodes to a valid program (the same
// device as internal/core's fuzz decoder).
type fuzzTape struct {
	data []byte
	pos  int
}

func (p *fuzzTape) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[p.pos%len(p.data)]
	p.pos++
	return b
}

func (p *fuzzTape) intn(n int) int { return int(p.next()) % n }

// decodeBoundInstance builds a small instance from the tape: n in 2..8
// tasks, m in 1..5 machines (kept small so the exhaustive oracle stays
// cheap), chain or random in-tree shape, typed execution times in [1,256]
// ms, failure rates in [0, 200/256). Roughly half the machines duplicate
// an earlier column, so the dominance/bound interplay on symmetric
// platforms is exercised too.
func decodeBoundInstance(p *fuzzTape) (*core.Instance, error) {
	n := 2 + p.intn(7)
	m := 1 + p.intn(5)
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
			succ = i + 1 + p.intn(n-1-i)
		}
		deps = append(deps, app.Dep{From: app.TaskID(i), To: app.TaskID(succ)})
	}
	a, err := app.New(tasks, deps)
	if err != nil {
		return nil, err
	}

	// Column specs per machine; a machine may clone an earlier column,
	// creating symmetry classes.
	wByType := make([][]float64, ntypes)
	fCol := make([][]float64, m)
	for ty := range wByType {
		wByType[ty] = make([]float64, m)
	}
	for u := 0; u < m; u++ {
		if u > 0 && p.next()%2 == 0 {
			src := p.intn(u)
			for ty := range wByType {
				wByType[ty][u] = wByType[ty][src]
			}
			fCol[u] = fCol[src]
			continue
		}
		for ty := range wByType {
			wByType[ty][u] = 1 + float64(p.next())
		}
		col := make([]float64, n)
		for i := range col {
			col[i] = float64(p.next()%200) / 256
		}
		fCol[u] = col
	}
	w := make([][]float64, n)
	f := make([][]float64, n)
	for i := 0; i < n; i++ {
		w[i] = append([]float64(nil), wByType[tasks[i].Type]...)
		f[i] = make([]float64, m)
		for u := 0; u < m; u++ {
			f[i][u] = fCol[u][i]
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

// FuzzExactBound: the lower bound of any rule-feasible partial assignment
// must never exceed the optimum over its completions.
func FuzzExactBound(f *testing.F) {
	f.Add([]byte("exact-bound-admissible"))
	f.Add([]byte{6, 3, 2, 0, 120, 40, 1, 90, 0, 55, 2, 80, 1, 70, 3, 1, 2, 0, 1, 2})
	f.Add([]byte{8, 4, 3, 1, 200, 30, 0, 150, 1, 60, 0, 99, 7, 5, 3, 1, 0, 2, 4, 6, 8})
	f.Add([]byte("\x05\x02\x01\x00symmetric-platforms\xff\x10\x7f"))
	f.Add([]byte{4, 4, 1, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		p := &fuzzTape{data: data}
		in, err := decodeBoundInstance(p)
		if err != nil {
			t.Fatalf("decoder built an invalid instance: %v", err)
		}
		rule := []core.Rule{core.Specialized, core.GeneralRule, core.OneToOne}[p.intn(3)]
		if rule == core.OneToOne && in.N() > in.M() {
			rule = core.GeneralRule
		}
		order := in.App.ReverseTopological()
		depth := p.intn(in.N() + 1)
		prefix := feasiblePrefix(in, rule, order, depth, func(int) int { return int(p.next()) })

		s, lb := boundAt(t, in, rule, prefix)
		opt, done := completionOptimum(in, rule, order, prefix, 2_000_000)
		if !done || math.IsInf(opt, 1) {
			return // oracle budget hit, or no completion to be admissible to
		}
		if lb > opt*(1+1e-9) {
			t.Fatalf("inadmissible bound: %v exceeds completion optimum %v (rule %v, prefix %v, n=%d m=%d)",
				lb, opt, rule, prefix, in.N(), in.M())
		}
		if prunesAbove(s, len(prefix), opt*(1+1e-9)) {
			t.Fatalf("inadmissible decision: node pruned against its completion optimum %v (rule %v, prefix %v, n=%d m=%d)",
				opt, rule, prefix, in.N(), in.M())
		}
	})
}
