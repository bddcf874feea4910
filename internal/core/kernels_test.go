package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// penaltyRow is the feasibility penalty row the exact solver's bound hands
// MinLandingAt for a task of type ty under the rule, given the Pricer's
// current partial assignment: +Inf on every machine the rule closes to
// the task (one-to-one: used; Specialized: hosting another type), 0
// elsewhere (always 0 under General).
func penaltyRow(in *core.Instance, p *core.Pricer, rule core.Rule, ty app.TypeID) []float64 {
	pen := make([]float64, in.M())
	for j := 0; j < in.N(); j++ {
		u := p.Machine(app.TaskID(j))
		if u == platform.NoMachine {
			continue
		}
		switch rule {
		case core.OneToOne:
			pen[u] = math.Inf(1)
		case core.Specialized:
			if in.App.Type(app.TaskID(j)) != ty {
				pen[u] = math.Inf(1)
			}
		}
	}
	return pen
}

// checkMinLandingAt requires MinLandingAt(i, d, pen) to equal a PriceAllAt
// row followed by a strict-< scan over its pen[u] == 0 cells — value bits
// and first-of-equals argmin, (+Inf, -1) when no cell is admitted — and
// LandingOn(i, d, pen, u) to equal the row cell plus pen[u] for every u,
// never below that minimum and equal to it at the argmin. It reports
// whether two or more admitted machines tie at the minimum.
func checkMinLandingAt(t testing.TB, p *core.Pricer, i app.TaskID, d float64, pen []float64, step string) bool {
	t.Helper()
	row := make([]float64, p.M())
	p.PriceAllAt(i, d, row)
	want, wantAt := math.Inf(1), -1
	for u, v := range row {
		if pen[u] == 0 && v < want {
			want, wantAt = v, u
		}
	}
	got, at := p.MinLandingAt(i, d, pen)
	if math.Float64bits(got) != math.Float64bits(want) || at != wantAt {
		t.Fatalf("%s: MinLandingAt(T%d, d=%v) = (%v, %d), filtered PriceAllAt scan (%v, %d) (must be bit-equal)",
			step, int(i)+1, d, got, at, want, wantAt)
	}
	// LandingOn is one cell of that minimum: the row cell plus its penalty,
	// bit for bit, never below the minimum and equal to it at the argmin.
	for u, v := range row {
		on := p.LandingOn(i, d, pen, u)
		if cell := v + pen[u]; math.Float64bits(on) != math.Float64bits(cell) {
			t.Fatalf("%s: LandingOn(T%d, d=%v, M%d) = %v, PriceAllAt cell plus penalty %v (must be bit-equal)",
				step, int(i)+1, d, u+1, on, cell)
		}
		if on < got || (u == at && math.Float64bits(on) != math.Float64bits(got)) {
			t.Fatalf("%s: LandingOn(T%d, d=%v, M%d) = %v against MinLandingAt (%v, M%d)",
				step, int(i)+1, d, u+1, on, got, at+1)
		}
	}
	ties := 0
	for u, v := range row {
		if pen[u] == 0 && v == want {
			ties++
		}
	}
	return ties > 1
}

// duplicatedColumns rebuilds an instance with machine column u copied
// from base column u%distinct, so empty machines of one class price every
// landing identically — the ties MinLandingAt must break like the scan.
func duplicatedColumns(t testing.TB, base *core.Instance, distinct int) *core.Instance {
	t.Helper()
	n, m := base.N(), base.M()
	w := make([][]float64, n)
	f := make([][]float64, n)
	for i := 0; i < n; i++ {
		id := app.TaskID(i)
		w[i] = make([]float64, m)
		f[i] = make([]float64, m)
		for u := 0; u < m; u++ {
			src := platform.MachineID(u % distinct)
			w[i][u] = base.Platform.Time(id, src)
			f[i][u] = base.Failures.Rate(id, src)
		}
	}
	pl, err := platform.New(w)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := failure.New(f)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInstance(base.App, pl, fm)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestMinLandingAtBitEqual pins the fused landing-minimum kernel to the
// path it fuses: for any machine count, any partial assignment depth, any
// demand and the penalty rows of all three rules, MinLandingAt must return
// the bits and the argmin of PriceAllAt plus a strict-< scan over the
// admitted cells — ties (duplicated machine columns) and fully closed
// rows included — and LandingOn must price every single cell of that
// minimum bit for bit. The exact solver's bound prices every unplaced
// task's landing through the two, so this is the contract that keeps its
// search tree unchanged.
func TestMinLandingAtBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	rules := []core.Rule{core.Specialized, core.OneToOne, core.GeneralRule}
	tied := 0
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16} {
		ntypes := min(3, m) // the generator rejects more types than machines
		base, err := gen.Chain(gen.Default(12, ntypes, m), gen.RNG(int64(100+m)))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []*core.Instance{base, duplicatedColumns(t, base, 1+m/3)} {
			p := core.NewPricer(in)
			order := in.App.ReverseTopological()
			closed := make([]float64, m)
			for u := range closed {
				closed[u] = math.Inf(1)
			}
			for depth := 0; depth <= len(order); depth += 2 {
				// Replay a prefix of the search order, then price every
				// unplaced task at a pseudo-random demand.
				p.Reset()
				for j := 0; j < depth; j++ {
					if err := p.Assign(order[j], platform.MachineID((j/2)%m)); err != nil {
						t.Fatal(err)
					}
				}
				for _, i := range order[depth:] {
					d := 0.25 + 4*rng.Float64()
					for _, rule := range rules {
						step := fmt.Sprintf("m=%d depth=%d rule=%v", m, depth, rule)
						if checkMinLandingAt(t, p, i, d, penaltyRow(in, p, rule, in.App.Type(i)), step) {
							tied++
						}
					}
					checkMinLandingAt(t, p, i, d, closed, fmt.Sprintf("m=%d depth=%d all closed", m, depth))
				}
			}
		}
	}
	if tied == 0 {
		t.Fatal("no landing minimum was tied: the first-of-equals tie-break went unexercised")
	}
}
