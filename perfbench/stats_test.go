package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{10000, 0.99, 0.99},  // 100 beyond the p99
		{1000, 0.99, 0.99},   // exactly 10 beyond
		{999, 0.99, 0.95},    // 9.99 beyond the p99: fall back
		{200, 0.99, 0.95},    // 10 beyond the p95
		{100, 0.99, 0.9},     // 10 beyond the p90
		{40, 0.99, 0.75},     // 10 beyond the p75
		{19, 0.99, 0.5},      // nothing honest above the median
		{100000, 0.99, 0.99}, // never above the percentile asked for
		{100000, 0.999, 0.999},
	} {
		if q := tailPercentile(c.n, c.want); q != c.got {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, q, c.got)
		}
	}
}

func TestTailValue(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending: tail must sort
	}
	v, q := tail(xs, 0.99)
	if q != 0.95 {
		t.Fatalf("percentile %v, want 0.95", q)
	}
	if want := 0.95 * 199; v < want-1e-9 || v > want+1e-9 {
		t.Fatalf("p95 of 0..199 = %v, want %v", v, want)
	}
	if xs[0] != 199 {
		t.Fatal("tail reordered its input")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median %v", m)
	}
	if q := quantile([]float64{0, 10}, 0.25); q != 2.5 {
		t.Fatalf("interpolated quantile %v", q)
	}
}

func spanAt(id, parent int, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		spanAt(1, 0, 0, 100),   // root: children cover [10,40) ∪ [30,60) ∪ [90,120)
		spanAt(2, 1, 10, 40),   // child with a grandchild
		spanAt(3, 1, 30, 60),   // overlaps child 2: counted once
		spanAt(4, 1, 90, 120),  // runs past the root's end: clipped
		spanAt(5, 2, 15, 25),   // grandchild: charged to 2, not to 1
		spanAt(6, 0, 200, 210), // second root, no children
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
}

func TestLayerTotals(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "draw", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "milp", Start: 10, End: 70},
		{ID: 3, Parent: 1, Name: "milp", Start: 70, End: 90},
	}
	self, count := layerTotals(spans)
	if self["draw"] != 20 || self["milp"] != 80 || count["milp"] != 2 {
		t.Fatalf("self %v count %v", self, count)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", "", 0); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	tr.end(0)
}

func TestOpenLoopAccounting(t *testing.T) {
	ms := time.Millisecond
	reqs := []request{
		// on time: latency is service time
		{due: 0, sent: 0, done: 2 * ms},
		// generator ran 5ms late: the lateness counts against latency
		{due: 10 * ms, sent: 15 * ms, done: 16 * ms},
		// finished last
		{due: 20 * ms, sent: 20 * ms, done: 50 * ms},
	}
	ol := summarizeOpenLoop(reqs)
	if got := []float64{2, 6, 30}; !sameValues(ol.latMs, got) {
		t.Fatalf("latencies %v, want %v", ol.latMs, got)
	}
	if got := []float64{0, 5, 0}; !sameValues(ol.lagMs, got) {
		t.Fatalf("lags %v, want %v", ol.lagMs, got)
	}
	if ol.span != 50*ms {
		t.Fatalf("span %v, want 50ms", ol.span)
	}
	if l := reqs[1].latency(); l != 6*ms {
		t.Fatalf("latency from due = %v, want 6ms (not the 1ms since send)", l)
	}
}

func TestGuardCounts(t *testing.T) {
	pass := func(c map[string]float64) *passResult { return &passResult{counts: c} }
	same := []*passResult{pass(map[string]float64{"n": 3}), pass(map[string]float64{"n": 3})}
	if errs := guardCounts(same); len(errs) != 0 {
		t.Fatalf("identical passes flagged: %v", errs)
	}
	drift := []*passResult{pass(map[string]float64{"n": 3}), pass(map[string]float64{"n": 4})}
	if errs := guardCounts(drift); len(errs) != 1 {
		t.Fatalf("drift of n not named once: %v", errs)
	}
	// An untraced first pass lacks the traced-only count "m"; drift of m
	// among the traced passes must still be caught.
	traced := []*passResult{
		pass(map[string]float64{"n": 3}),
		pass(map[string]float64{"n": 3, "m": 7}),
		pass(map[string]float64{"n": 3, "m": 8}),
	}
	if errs := guardCounts(traced); len(errs) != 1 {
		t.Fatalf("drift of traced-only m not named once: %v", errs)
	}
}

func TestHostScale(t *testing.T) {
	// A pass whose reference ran twice as slow, on average, reports half
	// its times.
	p := &passResult{opMs: []float64{10, 30}, refs: []time.Duration{refNominal, 3 * refNominal}}
	if got := scaled(func(p *passResult) []float64 { return p.opMs })(p); got[0] != 5 || got[1] != 15 {
		t.Fatalf("scaled op times = %v, want [5 15]", got)
	}
	if got := queens(8, 0, 0, 0); got != 92 {
		t.Fatalf("queens(8) = %d, want 92", got)
	}
}
