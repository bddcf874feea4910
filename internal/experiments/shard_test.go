package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestShardedAssembleMatchesLocal: computing a campaign as scattered
// (point, draw-range) chunks — through a JSON round trip, like the fabric
// ships them — and assembling reproduces the local engine byte for byte.
func TestShardedAssembleMatchesLocal(t *testing.T) {
	cfg := Config{Draws: 4, Thin: 3, Seed: 17, Workers: 1}
	local, err := Figure(5, cfg)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := FigurePlan(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Draws != 4 || len(plan.Xs) == 0 {
		t.Fatalf("unexpected plan %+v", plan)
	}
	out := make([][]DrawResult, len(plan.Xs))
	ctx := context.Background()
	// Deliberately uneven chunking: [0,1), [1,4) per point.
	for xi, x := range plan.Xs {
		out[xi] = make([]DrawResult, plan.Draws)
		for _, rng := range [][2]int{{0, 1}, {1, plan.Draws}} {
			part, err := RunDraws(ctx, 5, cfg, x, rng[0], rng[1])
			if err != nil {
				t.Fatal(err)
			}
			// JSON round trip: what the wire does to the values.
			var back []DrawResult
			b, err := json.Marshal(part)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			copy(out[xi][rng[0]:rng[1]], back)
		}
	}
	merged, err := Assemble(5, cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, merged) {
		t.Fatalf("sharded result diverges from local:\n%s\nvs\n%s", Render(local), Render(merged))
	}
	lb, _ := json.Marshal(local)
	mb, _ := json.Marshal(merged)
	if !bytes.Equal(lb, mb) {
		t.Fatal("sharded result not byte-identical to local")
	}
}

// TestAssembleRejectsBadDims: a merge hole (missing point or short draw
// column) is an error, not a silent drop.
func TestAssembleRejectsBadDims(t *testing.T) {
	cfg := Config{Draws: 2, Thin: 4, Seed: 1}
	plan, err := FigurePlan(5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(5, cfg, make([][]DrawResult, len(plan.Xs)-1)); err == nil {
		t.Fatal("short point axis accepted")
	}
	out := make([][]DrawResult, len(plan.Xs))
	for i := range out {
		out[i] = make([]DrawResult, plan.Draws)
	}
	out[0] = out[0][:1]
	if _, err := Assemble(5, cfg, out); err == nil {
		t.Fatal("short draw column accepted")
	}
}

// TestRunDrawsBadRange: negative or inverted ranges are rejected.
func TestRunDrawsBadRange(t *testing.T) {
	if _, err := RunDraws(context.Background(), 5, Config{Draws: 2}, 50, 2, 1); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := RunDraws(context.Background(), 99, Config{Draws: 2}, 50, 0, 1); err == nil {
		t.Fatal("unknown figure accepted")
	}
}
