// Command perfbench is microfab's end-to-end benchmark. It drives the
// repository's public layers from outside — exact.Solve, the experiment
// campaigns, the heuristics and polish search, the MILP, the one-to-one
// optimum, the pricing core and an in-process serve.Server — on four
// named workloads, checks every answer, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload exact-proof --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 the run also times an untraced reference,
// then replays the workload with spans around every layer call and prints
// the per-layer metrics ("per_layer") plus trace.overhead_frac.
//
// Every solve is bounded by node budgets only (wall-clock limits are set
// as watchdogs that never bind) and runs at Workers=1, so every result and
// every count is a pure function of the seed; the determinism guard fails
// the run if any such count differs between the passes of one invocation.
// A run repeats its workload in passes for --seconds. Batch workloads time
// every operation and report medians over the passes (wall_s and cpu_s are
// sums of per-operation medians), at reference host speed (see hostref.go);
// the open loop pools its requests. The latency tail is printed on stderr
// at the highest percentile with at least ten samples beyond it (see
// tailPercentile) but is not a metric: on serve-mixed the p99 is set by
// the host's timer jitter (on a 2-core VM the generator ran about 1 ms
// late at p99 in a quiet hour, and a bare 500/s sleep loop alone 3 to 5 ms
// late in a busy one), and the batch workloads' 5 to 45 committed
// operations have no tail beyond the p75.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workload is one named benchmark workload.
type workload interface {
	// setup builds the workload's inputs from the seed; it is timed and
	// repeated, and the last call's state is the one the passes use.
	setup(seed int64) error
	// pass runs the workload once. tr is nil on untraced passes.
	pass(tr *tracer) (*passResult, error)
	// verify runs the untimed independent checks once, after the passes.
	verify() []string
}

// tracedWorkload adds traced-run extras (kernel timings, the ablation
// ladder) computed after the traced passes.
type tracedWorkload interface {
	extras(tr *tracer) (map[string]float64, []string)
}

// passResult is one pass's outcome as the workload sees it; timedPasses
// adds the wall, CPU, allocation and GC figures.
type passResult struct {
	attempted, failed int
	// opMs and opCPUMs time every operation of a batch workload, in the
	// same order on every pass; latMs holds the latency samples: the
	// committed operations' times, or the open loop's requests.
	opMs, opCPUMs, latMs []float64
	wall                 time.Duration
	solved, items        int       // solved_frac numerator and denominator
	quality              []float64 // per-operation period / lower bound
	sloOK                int       // correct answers within the stated limit
	// counts must repeat exactly on every pass of one invocation.
	counts map[string]float64
	// values holds the pass's answers (campaign draws, proven periods) for
	// cross-pass and traced-replay comparisons.
	values []float64
	// refs holds the reference-search times sampled between the pass's
	// operations (see hostref.go); lastRef is when the last one ended.
	refs    []time.Duration
	lastRef time.Time
	// layer holds the per-layer metrics of a traced pass.
	layer map[string]float64
	errs  []string

	// measured marks a pass that timed its own window (the open loop
	// excludes schedule encoding and answer checking); otherwise
	// timedPasses charges the whole pass call.
	measured bool
	cpu      time.Duration
	allocB   float64
	gcCount  float64
	gcPause  time.Duration
}

// op books one timed operation. Only committed operations (the fixed
// corpus, not the seed-drawn extras) enter the latency percentiles, so a
// seed cannot move them by itself. Callers call op between operations,
// never inside a timed one: it samples the host's speed.
func (p *passResult) op(committed bool, wall, cpu time.Duration) {
	p.opMs = append(p.opMs, ms(wall))
	p.opCPUMs = append(p.opCPUMs, ms(cpu))
	if committed {
		p.latMs = append(p.latMs, ms(wall))
	}
	if len(p.refs) == 0 || time.Since(p.lastRef) >= refEvery {
		p.refs = append(p.refs, refTime())
		p.lastRef = time.Now()
	}
}

// hostFactor is the pass's mean reference time over refNominal: how much
// slower than the reference host the pass ran.
func (p *passResult) hostFactor() float64 {
	if len(p.refs) == 0 {
		return 1
	}
	var sum time.Duration
	for _, r := range p.refs {
		sum += r
	}
	return float64(sum) / float64(len(p.refs)) / float64(refNominal)
}

// scaled returns a batch pass's operation times (wall, CPU or latency
// samples) at reference host speed.
func scaled(get func(*passResult) []float64) func(*passResult) []float64 {
	return func(p *passResult) []float64 {
		f := p.hostFactor()
		out := make([]float64, len(get(p)))
		for i, v := range get(p) {
			out[i] = v / f
		}
		return out
	}
}

func (p *passResult) fail(format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Set-up is repeated back to back at least setupReps times and until
// setupMin has passed (at most setupMaxReps times): a set-up of a
// fraction of a millisecond needs hundreds of repetitions for a steady
// median.
const (
	setupReps    = 9
	setupMin     = 250 * time.Millisecond
	setupMaxReps = 1000
)

var workloads = map[string]func() workload{
	"exact-proof":        func() workload { return &exactProof{} },
	"mip-campaign":       func() workload { return &mipCampaign{} },
	"heuristic-campaign": func() workload { return &heuristicCampaign{} },
	"serve-mixed":        func() workload { return &serveMixed{} },
}

func main() {
	name := flag.String("workload", "", "workload: exact-proof, mip-campaign, heuristic-campaign, serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "seconds of timed passes")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	corpus := flag.String("write-corpus", "", "regenerate the committed corpus, optima and goldens into this directory, then exit")
	flag.Parse()
	if *corpus != "" {
		if err := writeCorpus(*corpus); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	rep, err := run(mk(), *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one invocation: timed set-ups, timed passes until the
// budget is spent, the determinism guard, the independent checks and the
// metric reduction.
func run(w workload, name string, seed int64, budget time.Duration, traced bool) (*report, error) {
	if c, ok := w.(interface{ close() }); ok {
		defer c.close()
	}
	// The set-up runs are timed like a batch pass's operations, so they
	// are scaled to reference host speed the same way.
	setups := &passResult{}
	start := time.Now()
	for r := 0; r < setupReps || r < setupMaxReps && time.Since(start) < setupMin; r++ {
		t := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups.op(false, time.Since(t), 0)
	}
	setupS := median(scaled(func(p *passResult) []float64 { return p.opMs })(setups)) / 1e3

	refBudget := budget
	if traced {
		refBudget = budget / 2 // the other half replays with spans
	}
	passes, err := timedPasses(w, nil, refBudget)
	if err != nil {
		return nil, err
	}
	var errs []string
	errs = append(errs, guardCounts(passes)...)
	for i, p := range passes[1:] {
		if !sameValues(p.values, passes[0].values) {
			errs = append(errs, fmt.Sprintf("determinism: answers of pass %d differ from pass 1", i+2))
		}
	}
	errs = append(errs, w.verify()...)
	// A pass's own check failures are already counted in its failed
	// operations; they are printed with the rest but not counted again.
	var passErrs []string
	for _, p := range passes {
		passErrs = append(passErrs, p.errs...)
	}

	rep := &report{Metrics: map[string]metric{}}
	for _, p := range passes {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
	}
	if !traced {
		endToEnd(rep, passes, setupS)
	} else {
		tr := newTracer()
		tpasses, err := timedPasses(w, tr, budget-refBudget)
		if err != nil {
			return nil, err
		}
		errs = append(errs, guardCounts(append(passes[:1:1], tpasses...))...)
		for _, p := range tpasses {
			passErrs = append(passErrs, p.errs...)
			rep.Attempted += p.attempted
			rep.Failed += p.failed
			// A traced replay must compute exactly what the untraced
			// workload computed, or it is not tracing this workload.
			if !sameValues(p.values, passes[0].values) {
				errs = append(errs, "traced replay: answers differ from the untraced pass")
			}
		}
		layer := perLayer(passes, tpasses)
		if tw, ok := w.(tracedWorkload); ok {
			extra, xerrs := tw.extras(tr)
			for k, v := range extra {
				layer[k] = v
			}
			errs = append(errs, xerrs...)
		}
		for _, m := range perLayerMetrics {
			rep.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
		}
		path := filepath.Join(buildDir(), "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s; self time by span name:\n", len(tr.spans), path)
		self, count := layerTotals(tr.spans)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-28s %6d spans %12.3f ms\n", n, count[n], ms(self[n]))
		}
	}
	for _, e := range append(passErrs, errs...) {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", e)
	}
	rep.Failed += len(errs)
	rep.Correct = len(errs) == 0 && len(passErrs) == 0 && rep.Failed == 0
	return rep, nil
}

// timedPasses runs passes until the budget is spent: at least three, and a
// new pass starts only if the median pass so far still fits.
func timedPasses(w workload, tr *tracer, budget time.Duration) ([]*passResult, error) {
	var out []*passResult
	var walls []float64
	start := time.Now()
	for len(out) < 3 || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= budget {
		before := sample()
		t := time.Now()
		p, err := w.pass(tr)
		if err != nil {
			return nil, err
		}
		if !p.measured {
			p.wall = time.Since(t)
			p.charge(before, sample())
		}
		out = append(out, p)
		walls = append(walls, p.wall.Seconds())
	}
	return out, nil
}

// charge books the process counters between two samples to the pass.
func (p *passResult) charge(before, after procSample) {
	p.cpu = after.cpu - before.cpu
	p.allocB = after.allocB - before.allocB
	p.gcCount = after.gcCount - before.gcCount
	p.gcPause = after.gcPause - before.gcPause
}

// guardCounts is the determinism check: every count a pass reports must
// repeat exactly on every other pass of the invocation that reports it.
// Traced passes report more counts than untraced ones, so the traced
// passes are checked together with the first untraced pass.
func guardCounts(passes []*passResult) []string {
	var errs []string
	for k, v := range passes[0].counts {
		for i, p := range passes[1:] {
			if got, ok := p.counts[k]; ok && got != v {
				errs = append(errs, fmt.Sprintf("determinism: %s = %v on pass 1 but %v on pass %d", k, v, got, i+2))
				break
			}
		}
	}
	// Counts only the traced passes report are compared among them.
	for k, v := range passes[len(passes)-1].counts {
		for i, p := range passes[1:] {
			if got, ok := p.counts[k]; ok && got != v {
				if _, first := passes[0].counts[k]; !first {
					errs = append(errs, fmt.Sprintf("determinism: %s = %v on the last pass but %v on pass %d", k, v, got, i+2))
				}
				break
			}
		}
	}
	sort.Strings(errs)
	return errs
}

func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

func endToEnd(rep *report, passes []*passResult, setupS float64) {
	var walls, cpus, allocs, quality []float64
	var solved, items, slo, attempted int
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, p.allocB/1e6)
		quality = append(quality, p.quality...)
		solved += p.solved
		items += p.items
		slo += p.sloOK
		attempted += p.attempted
	}
	wall, cpu := wallTime(passes), median(cpus)
	var lat []float64
	if len(passes[0].opMs) > 0 {
		cpu = sumOfMedians(passes, scaled(func(p *passResult) []float64 { return p.opCPUMs })) / 1e3
		lat = itemMedians(passes, scaled(func(p *passResult) []float64 { return p.latMs }))
		var factors []float64
		for _, p := range passes {
			factors = append(factors, p.hostFactor())
		}
		fmt.Fprintf(os.Stderr, "perfbench: times at reference host speed; median host factor %.4f, unscaled wall_s %.4g\n",
			median(factors), sumOfMedians(passes, func(p *passResult) []float64 { return p.opMs })/1e3)
	} else {
		// Open loop: the percentiles pool every pass's requests.
		for _, p := range passes {
			lat = append(lat, p.latMs...)
		}
	}
	p99, q := tail(lat, 0.99)
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, %d operations; latency tail %.4g ms (the p%g of %d samples; not a metric)\n",
		len(passes), attempted, p99, q*100, len(lat))
	fmt.Fprintf(os.Stderr, "perfbench: pass walls (s): %.4g\n", walls)
	set := func(name string, v float64) {
		rep.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
	}
	set("setup_s", setupS)
	set("wall_s", wall)
	set("cpu_s", cpu)
	set("lat_p50_ms", median(lat))
	set("slo_frac", frac(slo, attempted))
	set("solved_frac", frac(solved, items))
	set("quality_ratio", mean(quality))
	set("alloc_mb", median(allocs))
	set("peak_rss_mb", peakRSSMB())
}

// wallTime is the wall time of one pass. For batch workloads every
// operation's time, at reference host speed, is its median over the passes
// and the pass time is the sum of those medians: host interference on a
// shared machine comes in bursts of a few seconds that slow whole passes,
// and a per-operation median discards the bursts a pass-level median would
// keep. The open loop's pass time is its schedule span.
func wallTime(passes []*passResult) float64 {
	if len(passes[0].opMs) > 0 {
		return sumOfMedians(passes, scaled(func(p *passResult) []float64 { return p.opMs })) / 1e3
	}
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	return median(walls)
}

// itemMedians returns, for every operation index, the median of its
// sample over the passes.
func itemMedians(passes []*passResult, get func(*passResult) []float64) []float64 {
	out := make([]float64, len(get(passes[0])))
	for i := range out {
		var vs []float64
		for _, p := range passes {
			vs = append(vs, get(p)[i])
		}
		out[i] = median(vs)
	}
	return out
}

func sumOfMedians(passes []*passResult, get func(*passResult) []float64) float64 {
	s := 0.0
	for _, v := range itemMedians(passes, get) {
		s += v
	}
	return s
}

var endToEndUnits = map[string]string{
	"setup_s": "s", "wall_s": "s", "cpu_s": "s", "lat_p50_ms": "ms",
	"slo_frac": "ratio", "solved_frac": "ratio", "quality_ratio": "ratio",
	"alloc_mb": "MB", "peak_rss_mb": "MB",
}

// perLayer reduces the traced passes' layer maps (median per metric) and
// adds the runtime and overhead figures shared by every workload.
func perLayer(untraced, traced []*passResult) map[string]float64 {
	out := map[string]float64{}
	keys := map[string]bool{}
	for _, p := range traced {
		for k := range p.layer {
			keys[k] = true
		}
	}
	for k := range keys {
		var vs []float64
		for _, p := range traced {
			vs = append(vs, p.layer[k])
		}
		out[k] = median(vs)
	}
	var gcs, pauses []float64
	for _, p := range untraced {
		gcs = append(gcs, p.gcCount)
		pauses = append(pauses, ms(p.gcPause))
	}
	out["runtime.gc_cycles"] = median(gcs)
	out["runtime.gc_pause_ms"] = median(pauses)
	out["trace.overhead_frac"] = wallTime(traced)/wallTime(untraced) - 1
	return out
}

type metricDef struct{ name, unit string }

var perLayerMetrics = []metricDef{
	{"core.priceall_ns", "ns"}, {"core.assign_ns", "ns"}, {"core.trialall_ns", "ns"}, {"core.tables_ms", "ms"},
	{"exact.nodes", "count"}, {"exact.ns_per_node", "ns"}, {"exact.solve_s", "s"},
	{"exact.ladder.bare.nodes", "count"}, {"exact.ladder.bare.ms", "ms"},
	{"exact.ladder.order.nodes", "count"}, {"exact.ladder.order.ms", "ms"},
	{"exact.ladder.dominance.nodes", "count"}, {"exact.ladder.dominance.ms", "ms"},
	{"exact.ladder.bound.nodes", "count"}, {"exact.ladder.bound.ms", "ms"},
	{"exact.ladder.incbound.nodes", "count"}, {"exact.ladder.incbound.ms", "ms"},
	{"exact.ladder.tiers.nodes", "count"}, {"exact.ladder.tiers.ms", "ms"},
	{"exact.burst_proven_frac", "ratio"},
	{"milp.build_ms", "ms"}, {"milp.solve_s", "s"}, {"mip.nodes", "count"}, {"milp.ms_per_node", "ms"},
	{"milp.redundant_frac", "ratio"}, {"milp.redundant_s", "s"}, {"milp.alloc_mb", "MB"},
	{"heuristics.solve_ms", "ms"},
	{"search.polish_s", "s"}, {"search.probes", "count"}, {"search.accept_ratio", "ratio"}, {"search.ns_per_probe", "ns"},
	{"oto.solve_ms", "ms"},
	{"experiments.engine_frac", "ratio"}, {"gen.instance_ms", "ms"},
	{"serve.hit_us_p50", "us"}, {"serve.hit_us_p99", "us"}, {"serve.decode_us", "us"}, {"serve.hash_us", "us"},
	{"serve.miss_ms_p50", "ms"}, {"serve.miss_ms_p99", "ms"}, {"serve.rejected", "count"},
	{"serve.hit_frac", "ratio"}, {"serve.gen_lag_ms_p99", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// relDiff is |a-b| relative to the larger magnitude.
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / max(math.Abs(a), math.Abs(b), 1e-300)
}

// procSample is a snapshot of the process counters a pass is charged with.
type procSample struct {
	cpu     time.Duration
	allocB  float64
	gcCount float64
	gcPause time.Duration
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sample() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	metrics.Read(runtimeSamples)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB:  float64(runtimeSamples[0].Value.Uint64()),
		gcCount: float64(runtimeSamples[1].Value.Uint64()),
		gcPause: time.Duration(mst.PauseTotalNs),
	}
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// buildDir is where run.sh keeps build output; traces go there too.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
