// Context-cancellation coverage for the request-facing search paths: a
// cancelled Solve must come back within one node batch per worker (the
// budget checks ctx at every nodeBatch reservation), still carrying its
// best incumbent, and enabling a context must never perturb a proven
// result (the differential corpus pins that separately by running with a
// live context).
package exact

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"microfab/internal/core"
)

// cancelInstance is big enough that an unpruned search would run for hours:
// every pruning rule is ablated so only the incumbent test shrinks the
// 9^18-leaf tree.
func cancelOptions(workers int, ctx context.Context) Options {
	return Options{
		Rule:             core.Specialized,
		Ctx:              ctx,
		Workers:          workers,
		MaxNodes:         1 << 40,
		WarmStart:        true,
		DisableBound:     true,
		DisableOrder:     true,
		DisableDominance: true,
	}
}

// TestCancelReturnsWithinBatch: cancelling mid-search stops every worker at
// its next nodeBatch reservation — milliseconds, not the remaining budget —
// and the search still returns the warm-start incumbent unproven.
func TestCancelReturnsWithinBatch(t *testing.T) {
	in := symmetricInstanceF(t, 18, 3, 9, 9, 0.005, 0.02, 42)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		res, err := Solve(in, cancelOptions(workers, ctx))
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: cancelled solve errored: %v", workers, err)
		}
		if res.Proven {
			t.Fatalf("workers=%d: cancelled search claims a proof after %d nodes", workers, res.Nodes)
		}
		if res.Mapping == nil || !res.Mapping.Complete() {
			t.Fatalf("workers=%d: cancelled search lost its incumbent", workers)
		}
		if math.IsInf(res.Period, 1) {
			t.Fatalf("workers=%d: incumbent period not finite", workers)
		}
		// The search ran ~50ms before the cancel; everything past that is
		// cancellation latency. One nodeBatch is microseconds of work, so
		// whole seconds would mean workers ignored the context (the bound
		// is generous for CI noise, the failure mode it catches is "ran
		// the full 2^40 node budget").
		if elapsed > 5*time.Second {
			t.Fatalf("workers=%d: cancelled solve took %v", workers, elapsed)
		}
	}
}

// TestCancelBeforeStart: an already-cancelled context stops the search at
// its first node, which still returns the un-metered warm start.
func TestCancelBeforeStart(t *testing.T) {
	in := symmetricInstanceF(t, 14, 3, 7, 7, 0.005, 0.02, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(in, Options{Rule: core.Specialized, Ctx: ctx, WarmStart: true})
	if err != nil {
		t.Fatalf("pre-cancelled solve errored: %v", err)
	}
	if res.Proven || res.Mapping == nil {
		t.Fatalf("pre-cancelled solve: proven=%v mapping=%v", res.Proven, res.Mapping)
	}
	// Cold and starved: no warm start, no dive, nothing found — the typed
	// budget error, never nil/nil.
	res, err = Solve(in, Options{Rule: core.Specialized, Ctx: ctx, DisableOrder: true})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("cold pre-cancelled solve: res=%v err=%v, want ErrBudgetExhausted", res, err)
	}
}

// TestBadBudgetTyped: negative budgets are rejected up front with the
// typed error, for every negative knob.
func TestBadBudgetTyped(t *testing.T) {
	in := symmetricInstanceF(t, 6, 2, 4, 4, 0.005, 0.02, 3)
	for _, opts := range []Options{
		{Rule: core.Specialized, MaxNodes: -1},
		{Rule: core.Specialized, TimeLimit: -time.Second},
		{Rule: core.Specialized, Workers: -2},
	} {
		res, err := Solve(in, opts)
		if !errors.Is(err, ErrBadBudget) {
			t.Fatalf("opts %+v: res=%v err=%v, want ErrBadBudget", opts, res, err)
		}
	}
}

// TestOnImproveStreams: the incumbent callback sees a monotonically
// improving sequence ending exactly at the final result, for sequential
// and parallel searches alike, and enabling it changes nothing about the
// outcome.
func TestOnImproveStreams(t *testing.T) {
	in := symmetricInstanceF(t, 12, 3, 6, 6, 0.005, 0.02, 11)
	base, err := Solve(in, Options{Rule: core.Specialized})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Proven {
		t.Fatalf("reference search unproven after %d nodes", base.Nodes)
	}
	for _, workers := range []int{1, 4} {
		var periods []float64
		res, err := Solve(in, Options{
			Rule:    core.Specialized,
			Workers: workers,
			OnImprove: func(p float64, m *core.Mapping) {
				if m == nil || !m.Complete() {
					t.Errorf("workers=%d: OnImprove with incomplete mapping", workers)
				}
				periods = append(periods, p)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Period) != math.Float64bits(base.Period) ||
			res.Mapping.String() != base.Mapping.String() {
			t.Fatalf("workers=%d: OnImprove changed the result: %v vs %v", workers, res.Period, base.Period)
		}
		for k := 1; k < len(periods); k++ {
			if periods[k] >= periods[k-1] {
				t.Fatalf("workers=%d: incumbent stream not strictly improving: %v", workers, periods)
			}
		}
		// Streamed periods are the search's Pricer values, which are
		// core.Period's: the last one is Result.Period to the bit.
		if n := len(periods); n > 0 && math.Float64bits(periods[n-1]) != math.Float64bits(res.Period) {
			t.Fatalf("workers=%d: last streamed incumbent %v != result %v", workers, periods[n-1], res.Period)
		}
	}
}
