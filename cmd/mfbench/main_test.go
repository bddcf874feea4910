package main

import (
	"strings"
	"testing"
)

func TestBenchLineParsing(t *testing.T) {
	cases := []struct {
		line string
		name string
		ok   bool
	}{
		{"BenchmarkExactSolveEvaluator \t 253022 \t 9910 ns/op \t 5045648 nodes/s", "BenchmarkExactSolveEvaluator", true},
		{"BenchmarkSwapKernel/adjacent_n=120-8   179839   3301 ns/op   0 B/op   0 allocs/op", "BenchmarkSwapKernel/adjacent_n=120", true},
		{"ok  \tmicrofab/internal/core\t9.262s", "", false},
		{"PASS", "", false},
		{"goos: linux", "", false},
	}
	for _, c := range cases {
		m := benchLine.FindStringSubmatch(c.line)
		if (m != nil) != c.ok {
			t.Fatalf("%q: matched=%v, want %v", c.line, m != nil, c.ok)
		}
		if m == nil {
			continue
		}
		if m[1] != c.name {
			t.Fatalf("%q: name %q, want %q", c.line, m[1], c.name)
		}
		metrics := parseMetrics(m[3])
		if len(metrics) == 0 {
			t.Fatalf("%q: no metrics parsed", c.line)
		}
		if _, ok := metrics["ns/op"]; !ok {
			t.Fatalf("%q: ns/op missing from %v", c.line, metrics)
		}
	}
	// The GOMAXPROCS suffix must be stripped but an inline -8 in a
	// subbenchmark name must survive.
	m := benchLine.FindStringSubmatch("BenchmarkX/m=-8/case-16  10  5 ns/op")
	if m == nil || m[1] != "BenchmarkX/m=-8/case" {
		t.Fatalf("suffix handling broke: %v", m)
	}
	if got := parseMetrics("12 ns/op garbage"); got == nil || len(got) != 1 {
		t.Fatalf("odd-field tail should keep complete pairs, got %v", got)
	}
	if got := parseMetrics("not-a-number ns/op"); got != nil {
		t.Fatalf("malformed tail accepted: %v", got)
	}
}

// report builds a one-metric-map-per-name Report for compare tests.
func report(entries ...Entry) Report {
	return Report{Schema: "microfab-bench/v1", Benchmarks: entries}
}

func entry(name string, metrics map[string]float64) Entry {
	return Entry{Name: name, Iters: 1, Metrics: metrics}
}

func TestCompareReports(t *testing.T) {
	a := entry("BenchmarkA", map[string]float64{"ns/op": 100})
	b := entry("BenchmarkB", map[string]float64{"ns/op": 1000, "nodes/s": 5e6})
	base := report(a, b)
	baseA, baseB := report(a), report(b)

	// Within threshold on every shared benchmark: clean gate over 2
	// entries; a benchmark on one side only is listed, never gated.
	cur := report(
		entry("BenchmarkA", map[string]float64{"ns/op": 115}),
		entry("BenchmarkB", map[string]float64{"ns/op": 900, "nodes/s": 4.5e6}),
		entry("BenchmarkNew", map[string]float64{"ns/op": 1e9}),
	)
	regs, oneSided, gated, err := compareReports(base, cur, 20)
	if err != nil || len(regs) != 0 || gated != 2 || len(oneSided) != 1 || !strings.Contains(oneSided[0], "BenchmarkNew: measured on the change only") {
		t.Fatalf("clean run flagged: regs=%v oneSided=%v gated=%d err=%v", regs, oneSided, gated, err)
	}

	// A base benchmark the change did not measure (deleted or renamed) is
	// listed as well, and does not fail the gate.
	withGone := report(a, b, entry("BenchmarkGone", map[string]float64{"ns/op": 50}))
	regs, oneSided, gated, err = compareReports(withGone, cur, 20)
	if err != nil || len(regs) != 0 || gated != 2 || len(oneSided) != 2 || !strings.Contains(oneSided[0], "BenchmarkGone: measured on the base only") {
		t.Fatalf("base-only benchmark: regs=%v oneSided=%v gated=%d err=%v", regs, oneSided, gated, err)
	}

	// ns/op growth beyond the threshold must be flagged.
	cur = report(entry("BenchmarkA", map[string]float64{"ns/op": 130}))
	regs, _, gated, _ = compareReports(baseA, cur, 20)
	if len(regs) != 1 || gated != 1 || !strings.Contains(regs[0], "BenchmarkA") {
		t.Fatalf("30%% ns/op growth not flagged: regs=%v gated=%d", regs, gated)
	}

	// A throughput drop is a regression even when ns/op looks fine.
	cur = report(entry("BenchmarkB", map[string]float64{"ns/op": 1000, "nodes/s": 3e6}))
	regs, _, _, _ = compareReports(baseB, cur, 20)
	if len(regs) != 1 || !strings.Contains(regs[0], "nodes/s") {
		t.Fatalf("40%% nodes/s drop not flagged: %v", regs)
	}

	// Throughput growth and ns/op shrink never trip the gate.
	cur = report(entry("BenchmarkB", map[string]float64{"ns/op": 10, "nodes/s": 5e8}))
	if regs, _, _, _ = compareReports(baseB, cur, 20); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}

	// Exactly at the limit passes; a hair over fails.
	cur = report(entry("BenchmarkA", map[string]float64{"ns/op": 120}))
	if regs, _, _, _ = compareReports(baseA, cur, 20); len(regs) != 0 {
		t.Fatalf("exactly +20%% flagged: %v", regs)
	}
	cur = report(entry("BenchmarkA", map[string]float64{"ns/op": 120.2}))
	if regs, _, _, _ = compareReports(baseA, cur, 20); len(regs) != 1 {
		t.Fatalf("+20.2%% not flagged: %v", regs)
	}

	// Disjoint sides (the post-rename shape) are a hard error with a
	// diagnostic naming both sides — never a clean zero-value diff.
	regs, _, gated, err = compareReports(base, report(entry("BenchmarkOther", map[string]float64{"ns/op": 1})), 20)
	if err == nil || len(regs) != 0 || gated != 0 {
		t.Fatalf("disjoint compare not rejected: regs=%v gated=%d err=%v", regs, gated, err)
	}
	for _, want := range []string{"BenchmarkA", "BenchmarkOther", "base"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("disjoint diagnostic %q does not mention %q", err, want)
		}
	}
	// Same failure when names overlap but none carries a gateable metric.
	_, _, _, err = compareReports(baseA, report(entry("BenchmarkA", map[string]float64{"B/op": 12})), 20)
	if err == nil {
		t.Fatal("metric-free overlap passed the gate")
	}

	// Repeated runs are compared on their medians: one slow outlier
	// round on either side moves nothing, a slow majority fails.
	runs := func(name string, ns ...float64) Report {
		var r Report
		for _, v := range ns {
			r.Benchmarks = append(r.Benchmarks, entry(name, map[string]float64{"ns/op": v}))
		}
		return r
	}
	base5 := runs("BenchmarkA", 100, 104, 98, 300, 101)
	if regs, _, _, _ = compareReports(base5, runs("BenchmarkA", 990, 110, 99, 103, 105), 20); len(regs) != 0 {
		t.Fatalf("one outlier round gated: %v", regs)
	}
	if regs, _, _, _ = compareReports(base5, runs("BenchmarkA", 130, 131, 99, 129, 102), 20); len(regs) != 1 || !strings.Contains(regs[0], "median ns/op 101 -> 129") {
		t.Fatalf("slow majority not flagged on its median: %v", regs)
	}
	// An even run count takes the mean of the middle two.
	if med, _ := medians(runs("BenchmarkA", 4, 1, 3, 2)); med["BenchmarkA"]["ns/op"] != 2.5 {
		t.Fatalf("even-count median %v, want 2.5", med["BenchmarkA"]["ns/op"])
	}
}

func TestParseBenchRoundTrip(t *testing.T) {
	text := `goos: linux
BenchmarkTrialAll/m8/batch-8   887908   347.0 ns/op
BenchmarkTrialAll/m8/loop-8    244735   1350 ns/op
BenchmarkExactSolvePricer      253022   9910 ns/op   5045648 nodes/s
PASS
ok  	microfab/internal/core	9.262s
`
	rep := parseBench(strings.NewReader(text), "t")
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	if rep.Benchmarks[2].Metrics["nodes/s"] != 5045648 {
		t.Fatalf("nodes/s lost: %+v", rep.Benchmarks[2])
	}
	if regs, oneSided, gated, err := compareReports(rep, rep, 20); err != nil || len(regs) != 0 || len(oneSided) != 0 || gated != 3 {
		t.Fatalf("self-compare: regs=%v oneSided=%v gated=%d err=%v", regs, oneSided, gated, err)
	}
}
