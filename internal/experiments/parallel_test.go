package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestParallelMatchesSequentialFig5: the engine's determinism contract —
// Workers=1 and Workers=8 produce byte-identical series for the same seed.
func TestParallelMatchesSequentialFig5(t *testing.T) {
	base := Config{Draws: 4, Thin: 3, Seed: 17}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8

	a, err := Figure(5, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure(5, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Workers=1 and Workers=8 diverge:\n%s\nvs\n%s", Render(a), Render(b))
	}
	if Render(a) != Render(b) {
		t.Fatal("rendered output differs between worker counts")
	}
}

// TestParallelMatchesSequentialFig11 covers the MIP path. Wall-clock
// budgets are nondeterministic, so the config makes the node budget the
// binding one: a generous time limit with a modest MIPMaxNodes.
func TestParallelMatchesSequentialFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("exact solves are slow; skipped with -short")
	}
	base := Config{
		Draws: 2, Thin: 8, Seed: 5,
		MIPTimeLimit: 60 * time.Second, MIPMaxNodes: 100,
	}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8

	a, err := Figure(11, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure(11, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Workers=1 and Workers=8 diverge:\n%s\nvs\n%s", Render(a), Render(b))
	}
}

// TestCancellation: cancelling the context mid-campaign stops the engine
// at the next draw boundary and surfaces context.Canceled.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := Config{
		Draws: 30, Seed: 1, Workers: 2,
		Progress: func(done, total int) {
			if done >= 3 {
				once.Do(cancel)
			}
		},
	}
	r, err := FigureCtx(ctx, 5, cfg)
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if r != nil {
		t.Fatal("cancelled campaign returned a partial result")
	}
}

// TestAlreadyCancelled: a context cancelled before the campaign starts
// yields no work at all.
func TestAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	cfg := Config{Draws: 2, Thin: 4, Seed: 1,
		Progress: func(done, total int) { ran = true }}
	if _, err := FigureCtx(ctx, 6, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("draws ran under a dead context")
	}
}

// TestProgressReporting: the callback sees every draw exactly once, with a
// monotonically increasing counter ending at the campaign total.
func TestProgressReporting(t *testing.T) {
	var calls []int
	var total int
	cfg := Config{
		Draws: 3, Thin: 6, Seed: 2, Workers: 4,
		Progress: func(done, tot int) {
			calls = append(calls, done)
			total = tot
		},
	}
	r, err := Figure(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(r.Points) * r.Draws
	if total != want {
		t.Fatalf("reported total %d, want %d", total, want)
	}
	if len(calls) != want {
		t.Fatalf("%d progress calls, want %d", len(calls), want)
	}
	for i, c := range calls {
		if c != i+1 {
			t.Fatalf("progress not monotonic: call %d reported %d", i, c)
		}
	}
}

// TestWorkersExceedItems: a pool larger than the work list still completes
// (workers are clamped to the item count).
func TestWorkersExceedItems(t *testing.T) {
	r, err := Figure(6, Config{Draws: 1, Thin: 10, Seed: 3, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
}

// TestExactWorkersDeterministic: the per-draw exact DFS burst may fan out
// over ExactWorkers goroutines; as long as the burst proves within its
// node budget, the campaign must stay byte-identical to the sequential
// burst for any worker count.
func TestExactWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("exact solves are slow; skipped with -short")
	}
	// Thin keeps only the smallest x point so both the DFS burst and the
	// MIP prove within the node budget — the regime where the determinism
	// contract holds (a budget-stopped parallel burst may stop at a
	// different incumbent; see Config.MIPMaxNodes).
	base := Config{
		Draws: 4, Thin: 14, Seed: 5,
		MIPTimeLimit: 60 * time.Second, MIPMaxNodes: 5000,
	}
	seq := base
	seq.ExactWorkers = 1
	par := base
	par.ExactWorkers = 4

	a, err := Figure(11, seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure(11, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ExactWorkers=1 and ExactWorkers=4 diverge:\n%s\nvs\n%s", Render(a), Render(b))
	}
}
