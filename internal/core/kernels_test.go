package core_test

import (
	"math/rand"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// TestPriceAllMultiBitEqual pins the fused multi-task landing kernel to the
// scalar path it fuses: for any machine count (the 4-wide unroll's tails
// included), any partial assignment depth and any demand vector, every cell
// of PriceAllMulti must be bit-identical to the corresponding PriceAllAt
// row — the contract that lets the exact solver's incremental bound rescan
// through one kernel call without changing a single search decision.
func TestPriceAllMultiBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16} {
		ntypes := 3
		if m < ntypes {
			ntypes = m // the generator rejects more types than machines
		}
		in, err := gen.Chain(gen.Default(12, ntypes, m), gen.RNG(int64(100+m)))
		if err != nil {
			t.Fatal(err)
		}
		p := core.NewPricer(in)
		order := in.App.ReverseTopological()
		for depth := 0; depth <= len(order); depth += 3 {
			// Replay a prefix of the search order, then price suffixes of
			// every length (empty included) at pseudo-random demands.
			p.Reset()
			for j := 0; j < depth; j++ {
				if err := p.Assign(order[j], platform.MachineID(j%m)); err != nil {
					t.Fatal(err)
				}
			}
			tasks := append([]app.TaskID(nil), order[depth:]...)
			demands := make([]float64, len(tasks))
			for i := range demands {
				demands[i] = 0.25 + 4*rng.Float64()
			}
			for cut := 0; cut <= len(tasks); cut++ {
				sub, dem := tasks[:cut], demands[:cut]
				got := make([]float64, cut*m)
				p.PriceAllMulti(sub, dem, got)
				want := make([]float64, m)
				for ti, i := range sub {
					p.PriceAllAt(i, dem[ti], want)
					for u := 0; u < m; u++ {
						if got[ti*m+u] != want[u] {
							t.Fatalf("m=%d depth=%d cut=%d: PriceAllMulti[%d,M%d]=%v, PriceAllAt=%v (must be bit-equal)",
								m, depth, cut, ti, u+1, got[ti*m+u], want[u])
						}
					}
				}
			}
		}
	}
}
