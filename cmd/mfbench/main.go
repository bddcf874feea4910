// Command mfbench converts `go test -bench` text output into a
// machine-readable JSON report, so CI can archive the performance
// trajectory of the hot loops (core Assign/Swap pricing, exact-solver
// nodes/s, search probes/s) as a build artifact instead of a log line
// humans have to diff by eye. With -compare it doubles as the regression
// gate: the fresh run is diffed against a committed baseline report and
// the exit status says whether any hot loop regressed.
//
// Usage:
//
//	go test -run='^$' -bench . -benchtime 1x ./... | mfbench -out BENCH.json
//	mfbench < bench.txt                  # JSON on stdout
//	mfbench -label pr5 < bench.txt
//	mfbench -compare bench/baseline.json -threshold 20 < bench.txt
//
// Every `BenchmarkName-P  N  <value> <unit> ...` line becomes one entry
// with the iteration count and a unit -> value map covering ns/op, B/op,
// allocs/op and any custom testing.B ReportMetric units (nodes/s,
// probes/s, ...). Non-benchmark lines are ignored, so the whole `go test`
// stream can be piped through verbatim. Exits non-zero when no benchmark
// lines were found — an empty artifact means the bench step silently
// broke.
//
// Compare mode gates only the benchmarks present in BOTH reports (new
// benchmarks pass by default, renamed ones silently leave the gate — keep
// the baseline fresh): ns/op may not grow by more than the threshold, and
// throughput ("/s") metrics may not drop by more than it. Everything else
// (B/op, allocs/op, iteration counts) is archived but not gated, because
// those are exact and the dedicated allocation tests already pin them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one parsed benchmark result line.
type Entry struct {
	// Name is the benchmark (sub)name with the -P GOMAXPROCS suffix
	// stripped: "BenchmarkSwapKernel/adjacent_n=120".
	Name string `json:"name"`
	// Iters is the measured iteration count.
	Iters int64 `json:"iters"`
	// Metrics maps unit -> value: {"ns/op": 3301, "nodes/s": 5.6e6}.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the artifact schema.
type Report struct {
	Schema string `json:"schema"`
	// Label tags the run (e.g. a PR number or git ref); -label sets it.
	Label string `json:"label,omitempty"`
	// GeneratedAt is the RFC 3339 build time.
	GeneratedAt string  `json:"generated_at"`
	Benchmarks  []Entry `json:"benchmarks"`
}

// benchLine matches "BenchmarkX/sub-8   123   456 ns/op   7 B/op ...":
// name, iterations, then the metric tail.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	label := flag.String("label", "", "optional run label recorded in the report")
	baselinePath := flag.String("compare", "", "baseline report to gate against; regressions beyond -threshold exit non-zero")
	threshold := flag.Float64("threshold", 20, "regression threshold in percent for -compare (ns/op growth, '/s' drop)")
	flag.Parse()

	report := parseBench(os.Stdin, *label)
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "mfbench: no benchmark lines on stdin (did the bench step run with -bench?)")
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" && *baselinePath == "" {
		os.Stdout.Write(buf)
		return
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mfbench: %d benchmarks -> %s\n", len(report.Benchmarks), *out)
	}
	if *baselinePath == "" {
		return
	}
	base, err := readReport(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfbench:", err)
		os.Exit(1)
	}
	regressions, gated, err := compareReports(base, report, *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfbench:", err)
		os.Exit(1)
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "mfbench: FAIL:", r)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "mfbench: gate failed: %d findings over %d gated benchmarks (limit %.0f%%)\n", len(regressions), gated, *threshold)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mfbench: gate passed: %d benchmarks within %.0f%% of %s\n", gated, *threshold, *baselinePath)
}

// parseBench reads a `go test -bench` text stream into a Report.
func parseBench(r io.Reader, label string) Report {
	report := Report{
		Schema:      "microfab-bench/v1",
		Label:       label,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		metrics := parseMetrics(m[3])
		if len(metrics) == 0 {
			continue
		}
		report.Benchmarks = append(report.Benchmarks, Entry{
			Name:    m[1],
			Iters:   iters,
			Metrics: metrics,
		})
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "mfbench: read input:", err)
		os.Exit(1)
	}
	return report
}

// readReport loads a JSON report written by a previous run.
func readReport(path string) (Report, error) {
	var rep Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != "microfab-bench/v1" {
		return rep, fmt.Errorf("%s: schema %q, want microfab-bench/v1", path, rep.Schema)
	}
	return rep, nil
}

// compareReports diffs the current run against the baseline over the
// benchmarks present in both (matched by name). A benchmark regresses when
// its ns/op grew by more than threshold percent, or any of its throughput
// metrics (unit ending in "/s") dropped by more than threshold percent.
// A baseline entry the run did not measure is a failure too: otherwise a
// deleted or renamed benchmark would drop out of the gate silently.
// It returns the failure descriptions (deterministic order) and how
// many benchmarks the gate actually covered. A gate that covered nothing
// is an error, not a clean zero-value diff: after a benchmark rename the
// two reports share no names and a silent pass would retire the gate —
// the diagnostic names both sides so the rename is obvious.
func compareReports(base, cur Report, threshold float64) (regressions []string, gated int, err error) {
	baseByName := make(map[string]Entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseByName[e.Name] = e
	}
	names := make([]string, 0, len(cur.Benchmarks))
	curByName := make(map[string]Entry, len(cur.Benchmarks))
	for _, e := range cur.Benchmarks {
		if _, dup := curByName[e.Name]; dup {
			continue // -count>1 reruns: gate on the first measurement
		}
		curByName[e.Name] = e
		names = append(names, e.Name)
	}
	sort.Strings(names)
	var missing []string
	for name := range baseByName {
		if _, ok := curByName[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		regressions = append(regressions,
			fmt.Sprintf("%s: in the baseline but not measured by this run (deleted or renamed? update the baseline and the -bench regex together)", name))
	}
	frac := threshold / 100
	for _, name := range names {
		b, ok := baseByName[name]
		if !ok {
			continue
		}
		c := curByName[name]
		covered := false
		if bn, cn := b.Metrics["ns/op"], c.Metrics["ns/op"]; bn > 0 && cn > 0 {
			covered = true
			if cn > bn*(1+frac) {
				regressions = append(regressions,
					fmt.Sprintf("%s: ns/op %.4g -> %.4g (+%.1f%%, limit %.0f%%)", name, bn, cn, 100*(cn/bn-1), threshold))
			}
		}
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			if strings.HasSuffix(unit, "/s") {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			bv, cv := b.Metrics[unit], c.Metrics[unit]
			if bv <= 0 || cv <= 0 {
				continue
			}
			covered = true
			if cv < bv*(1-frac) {
				regressions = append(regressions,
					fmt.Sprintf("%s: %s %.4g -> %.4g (-%.1f%%, limit %.0f%%)", name, unit, bv, cv, 100*(1-cv/bv), threshold))
			}
		}
		if covered {
			gated++
		}
	}
	if gated == 0 {
		return nil, 0, fmt.Errorf(
			"baseline shares no gateable benchmark names with this run — the gate would check nothing (renamed benchmarks? regenerate the baseline)\n  baseline has: %s\n  this run has: %s",
			sampleNames(base), sampleNames(cur))
	}
	return regressions, gated, nil
}

// sampleNames lists up to five benchmark names of a report for the
// no-overlap diagnostic.
func sampleNames(r Report) string {
	if len(r.Benchmarks) == 0 {
		return "(no benchmarks)"
	}
	names := make([]string, 0, 5)
	for _, e := range r.Benchmarks {
		names = append(names, e.Name)
		if len(names) == 5 {
			break
		}
	}
	s := strings.Join(names, ", ")
	if len(r.Benchmarks) > 5 {
		s += fmt.Sprintf(", … (%d total)", len(r.Benchmarks))
	}
	return s
}

// parseMetrics reads the "<value> <unit>" pairs of a benchmark line tail.
func parseMetrics(tail string) map[string]float64 {
	fields := strings.Fields(tail)
	metrics := make(map[string]float64, len(fields)/2)
	for k := 0; k+1 < len(fields); k += 2 {
		v, err := strconv.ParseFloat(fields[k], 64)
		if err != nil {
			return nil // malformed tail: not a benchmark line after all
		}
		metrics[fields[k+1]] = v
	}
	return metrics
}
