// Command mfbench converts `go test -bench` text output into a
// machine-readable JSON report, so CI can archive the performance
// trajectory of the hot loops (core Assign/Swap pricing, exact-solver
// nodes/s, search probes/s) as a build artifact instead of a log line
// humans have to diff by eye. With -base it doubles as the regression
// gate: the runs on stdin (the change) are compared with the runs of a
// base revision measured on the same machine, and the exit status says
// whether any hot loop regressed.
//
// Usage:
//
//	go test -run='^$' -bench . -benchtime 1x ./... | mfbench -out BENCH.json
//	mfbench < bench.txt                  # JSON on stdout
//	mfbench -label pr5 < bench.txt
//	mfbench -base base.txt -threshold 20 < head.txt
//
// Every `BenchmarkName-P  N  <value> <unit> ...` line becomes one entry
// with the iteration count and a unit -> value map covering ns/op, B/op,
// allocs/op and any custom testing.B ReportMetric units (nodes/s,
// probes/s, ...). Non-benchmark lines are ignored, so the whole `go test`
// stream can be piped through verbatim. Exits non-zero when no benchmark
// lines were found — an empty artifact means the bench step silently
// broke.
//
// Compare mode reads both sides as `go test -bench` text, each holding
// one or more runs of every benchmark (bench/paired.sh appends
// alternating rounds), and takes each metric's median over a side's runs.
// It gates the benchmarks measured on both sides: the change's median
// ns/op may not exceed the base's by more than the threshold, and its
// median throughput ("/s") metrics may not fall short by more than it.
// A benchmark measured on one side only (added, deleted or renamed) is
// listed but not gated. Everything else (B/op, allocs/op, iteration
// counts) is archived but not gated, because those are exact and the
// dedicated allocation tests already pin them.
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
	basePath := flag.String("base", "", "`go test -bench` output of the base revision to gate against; regressions beyond -threshold exit non-zero")
	threshold := flag.Float64("threshold", 20, "regression threshold in percent for -base (median ns/op growth, '/s' drop)")
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
	if *out == "" && *basePath == "" {
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
	if *basePath == "" {
		return
	}
	f, err := os.Open(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfbench:", err)
		os.Exit(1)
	}
	base := parseBench(f, "base")
	f.Close()
	regressions, oneSided, gated, err := compareReports(base, report, *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfbench:", err)
		os.Exit(1)
	}
	for _, n := range oneSided {
		fmt.Fprintln(os.Stderr, "mfbench: not gated:", n)
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "mfbench: FAIL:", r)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "mfbench: gate failed: %d findings over %d gated benchmarks (limit %.0f%%)\n", len(regressions), gated, *threshold)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mfbench: gate passed: %d benchmarks within %.0f%% of %s\n", gated, *threshold, *basePath)
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

// medians maps each benchmark of r to the median of each of its metrics
// over the runs that report it, and returns the names in sorted order.
func medians(r Report) (map[string]map[string]float64, []string) {
	runs := map[string]map[string][]float64{}
	for _, e := range r.Benchmarks {
		if runs[e.Name] == nil {
			runs[e.Name] = map[string][]float64{}
		}
		for unit, v := range e.Metrics {
			runs[e.Name][unit] = append(runs[e.Name][unit], v)
		}
	}
	med := make(map[string]map[string]float64, len(runs))
	names := make([]string, 0, len(runs))
	for name, units := range runs {
		med[name] = make(map[string]float64, len(units))
		for unit, vs := range units {
			sort.Float64s(vs)
			k := len(vs) / 2
			if len(vs)%2 == 1 {
				med[name][unit] = vs[k]
			} else {
				med[name][unit] = (vs[k-1] + vs[k]) / 2
			}
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return med, names
}

// compareReports diffs the change's runs (cur) against the base's over the
// benchmarks measured on both sides, matched by name, on each metric's
// median over a side's runs. A benchmark regresses when its median ns/op
// grew by more than threshold percent, or the median of any of its
// throughput metrics (unit ending in "/s") dropped by more than threshold
// percent. It returns the regressions and the benchmarks measured on one
// side only (both in deterministic order), and how many benchmarks the
// gate actually covered. A gate that covered nothing is an error, not a
// clean zero-value diff: after a rename of every benchmark the two sides
// share no names and a silent pass would retire the gate — the diagnostic
// names both sides so the rename is obvious.
func compareReports(base, cur Report, threshold float64) (regressions, oneSided []string, gated int, err error) {
	baseMed, baseNames := medians(base)
	curMed, curNames := medians(cur)
	for _, name := range baseNames {
		if _, ok := curMed[name]; !ok {
			oneSided = append(oneSided, name+": measured on the base only")
		}
	}
	frac := threshold / 100
	for _, name := range curNames {
		b, ok := baseMed[name]
		if !ok {
			oneSided = append(oneSided, name+": measured on the change only")
			continue
		}
		c := curMed[name]
		covered := false
		if bn, cn := b["ns/op"], c["ns/op"]; bn > 0 && cn > 0 {
			covered = true
			if cn > bn*(1+frac) {
				regressions = append(regressions,
					fmt.Sprintf("%s: median ns/op %.4g -> %.4g (+%.1f%%, limit %.0f%%)", name, bn, cn, 100*(cn/bn-1), threshold))
			}
		}
		units := make([]string, 0, len(b))
		for unit := range b {
			if strings.HasSuffix(unit, "/s") {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			bv, cv := b[unit], c[unit]
			if bv <= 0 || cv <= 0 {
				continue
			}
			covered = true
			if cv < bv*(1-frac) {
				regressions = append(regressions,
					fmt.Sprintf("%s: median %s %.4g -> %.4g (-%.1f%%, limit %.0f%%)", name, unit, bv, cv, 100*(1-cv/bv), threshold))
			}
		}
		if covered {
			gated++
		}
	}
	if gated == 0 {
		return nil, oneSided, 0, fmt.Errorf(
			"base and change share no gateable benchmark names — the gate would check nothing (renamed benchmarks?)\n  base has: %s\n  change has: %s",
			sampleNames(baseNames), sampleNames(curNames))
	}
	return regressions, oneSided, gated, nil
}

// sampleNames lists up to five of the given benchmark names for the
// no-overlap diagnostic.
func sampleNames(names []string) string {
	if len(names) == 0 {
		return "(no benchmarks)"
	}
	s := strings.Join(names[:min(len(names), 5)], ", ")
	if len(names) > 5 {
		s += fmt.Sprintf(", … (%d total)", len(names))
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
