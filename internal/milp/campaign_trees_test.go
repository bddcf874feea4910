package milp

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/mip"
)

var updateTrees = flag.Bool("update-trees", false, "rewrite testdata/campaign_trees.json from the current solver")

const treesFile = "testdata/campaign_trees.json"

// campaignNodes is the MIP node budget of the Figure 10–12 benchmark
// campaigns.
const campaignNodes = 100

// treeDraw is one Figure 10 (m=5, p=2) or Figure 12 (m=9, p=4) shaped
// chain instance, drawn from a fixed seed.
type treeDraw struct {
	Fig  int   `json:"fig"`
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
}

func (d treeDraw) instance() (*core.Instance, error) {
	p, m := 2, 5
	if d.Fig == 12 {
		p, m = 4, 9
	}
	return gen.Chain(gen.Default(d.N, p, m), gen.RNG(d.Seed))
}

// treeDraws are the pinned draws: small-n Figure 10 points and the
// smallest Figure 12 point, the shapes the campaigns spend their MIP time on.
var treeDraws = []treeDraw{
	{10, 4, 1}, {10, 4, 2}, {10, 4, 3},
	{10, 5, 1}, {10, 5, 2}, {10, 5, 3},
	{10, 6, 1}, {10, 6, 2},
	{12, 5, 1}, {12, 5, 2},
}

// treeRecord is the fingerprint of one branch-and-bound search: any change
// to a pivot choice or LP vertex shows up in the node or pivot count or in
// the objective's bits.
type treeRecord struct {
	treeDraw
	Warm         bool   `json:"warm"`
	Status       string `json:"status"`
	Nodes        int    `json:"nodes"`
	LPIterations int    `json:"lp_iterations"`
	ObjBits      string `json:"objective_bits"`
}

// solveTree runs the specialized-rule MIP on d at the campaign budget, cold
// or warm-started from H4w as the campaigns warm-start it.
func solveTree(d treeDraw, warm bool) (*mip.Result, error) {
	in, err := d.instance()
	if err != nil {
		return nil, err
	}
	md, err := Build(in, core.Specialized)
	if err != nil {
		return nil, err
	}
	opts := mip.Options{MaxNodes: campaignNodes}
	if warm {
		mp, err := heuristics.H4w(in, nil, heuristics.Options{})
		if err != nil {
			return nil, err
		}
		if opts.Incumbent, err = md.WarmStart(mp); err != nil {
			return nil, err
		}
	}
	return mip.Solve(&mip.Problem{Model: md.LP, Integers: md.Integers}, opts)
}

func recordTrees() ([]treeRecord, error) {
	var recs []treeRecord
	for _, d := range treeDraws {
		for _, warm := range []bool{false, true} {
			res, err := solveTree(d, warm)
			if err != nil {
				return nil, fmt.Errorf("%+v warm=%v: %w", d, warm, err)
			}
			recs = append(recs, treeRecord{
				treeDraw:     d,
				Warm:         warm,
				Status:       res.Status.String(),
				Nodes:        res.Nodes,
				LPIterations: res.LPIterations,
				ObjBits:      fmt.Sprintf("%016x", math.Float64bits(res.Objective)),
			})
		}
	}
	return recs, nil
}

// TestCampaignTreesGolden requires every pinned branch-and-bound search to
// reproduce its recorded status, node count, pivot count and objective bits
// exactly, so an LP kernel change that alters any pivot or vertex — and so
// possibly which campaign draws are proven and kept — fails here. Regenerate
// with `go test ./internal/milp -run TestCampaignTreesGolden -update-trees`
// only for a deliberate change of the search.
func TestCampaignTreesGolden(t *testing.T) {
	got, err := recordTrees()
	if err != nil {
		t.Fatal(err)
	}
	if *updateTrees {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(treesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(treesFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(treesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []treeRecord
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded trees, %d solved", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("tree %d changed:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// BenchmarkMIPCampaignDraw is one Figure 10 campaign draw's exact solve:
// the n=5 (m=5, p=2) model built, warm-started from H4w and searched at the
// campaigns' 100-node budget. lp_pivots/op is its simplex pivot count, fixed
// by the search tree, so ns/op moves with the per-pivot cost alone.
func BenchmarkMIPCampaignDraw(b *testing.B) {
	benchmarkDraw(b, treeDraw{Fig: 10, N: 5, Seed: 1})
}

// BenchmarkMIPCampaignDrawFig12 is BenchmarkMIPCampaignDraw on the smallest
// Figure 12 point (n=5, m=9, p=4), the campaigns' largest tableau and their
// costliest draw shape.
func BenchmarkMIPCampaignDrawFig12(b *testing.B) {
	benchmarkDraw(b, treeDraw{Fig: 12, N: 5, Seed: 1})
}

// benchmarkDraw solves d warm-started at the campaign budget per op and
// reports its pivot count.
func benchmarkDraw(b *testing.B, d treeDraw) {
	b.ReportAllocs()
	pivots := 0
	for b.Loop() {
		res, err := solveTree(d, true)
		if err != nil {
			b.Fatal(err)
		}
		pivots = res.LPIterations
	}
	b.ReportMetric(float64(pivots), "lp_pivots/op")
}
