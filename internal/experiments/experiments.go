// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Figure(n, cfg) reproduces plot n: it draws random
// campaigns with the paper's parameters, runs the heuristics (and, where
// the paper does, the exact MIP or the optimal one-to-one solver), and
// returns the series of mean periods the paper charts.
//
// The paper's campaigns average 30 random draws per point (100 for
// Figure 9); Config.Draws scales this down for quick runs.
//
// Campaigns execute on a worker pool: every (point, draw) pair is an
// independent work item fanned out across Config.Workers goroutines. Each
// worker owns a scratch state (one incremental core.Evaluator, rebuilt per
// instance and reset per mapping), so finished mappings are priced through
// the incremental engine instead of fresh from-scratch evaluations.
// Determinism is preserved by construction — each item derives a private
// RNG stream from (Config.Seed, figure, point, draw) via gen.DeriveRNG,
// and the reduction walks items in sequential order — so Workers=1 and
// Workers=N produce byte-identical results for the same Config.Seed.
// One caveat: the MIP figures (10..12) bound their exact solves by
// wall-clock time as well as node count, and a deadline that fires at a
// different node under CPU contention can flip a draw between proven and
// dropped. For byte-identical MIP campaigns set MIPMaxNodes low enough
// (or MIPTimeLimit high enough) that the node budget binds first.
//
// With Config.Polish set, every heuristic mapping is refined by a bounded
// local-search post-pass (internal/search) before pricing: the series then
// chart the polished periods. Each (draw, series) pair derives its own
// polish RNG stream, so polished campaigns keep the byte-identical
// determinism contract for any worker count.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/milp"
	"microfab/internal/oto"
	"microfab/internal/platform"
	"microfab/internal/search"
	"microfab/internal/stats"
)

// Config scales a campaign.
type Config struct {
	// Draws is the number of random instances per point (0 = the paper's
	// count for that figure).
	Draws int
	// Seed drives all random draws (0 = 1).
	Seed int64
	// Thin keeps every k-th x-axis point (0 or 1 = all points).
	Thin int
	// MIPTimeLimit bounds each exact solve (0 = 10s).
	MIPTimeLimit time.Duration
	// MIPMaxNodes bounds each exact solve's search (0 = 100000). Unlike
	// the wall-clock limit, a binding node budget is deterministic for a
	// sequential solve; with ExactWorkers > 1 a *binding* node budget may
	// stop the DFS burst at a different incumbent per run (proven bursts
	// stay byte-identical for any worker count).
	MIPMaxNodes int
	// ExactWorkers is the worker count of each draw's exact DFS burst
	// (0 or 1 = sequential). The campaign already fans draws out over
	// Workers goroutines, so raising this mainly helps campaigns whose
	// draw count is small next to the CPU count — exact campaigns pushing
	// single large instances past the paper's n <= 15 regime.
	ExactWorkers int
	// Workers is the number of goroutines computing draws concurrently
	// (0 = runtime.GOMAXPROCS(0); 1 = sequential). Any value yields the
	// same series for the same Seed, except when a wall-clock solver
	// budget binds on the MIP figures (see the package comment).
	Workers int
	// Polish selects a local-search post-pass applied to every heuristic
	// mapping before pricing: "" = none, "ls" = first-improvement hill
	// climbing, "anneal" = simulated annealing (see internal/search). The
	// MIP figures feed the polished incumbent to the exact solvers as a
	// stronger warm start.
	Polish string
	// PolishBudget bounds each post-pass — probes for "ls", proposals for
	// "anneal" (0 = the search package's campaign default).
	PolishBudget int
	// Progress, when non-nil, is called after every completed draw with
	// the number of draws finished so far and the campaign total. Calls
	// are serialized across workers; keep the callback fast.
	Progress func(done, total int)
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

func (c Config) draws(paper int) int {
	if c.Draws > 0 {
		return c.Draws
	}
	return paper
}

func (c Config) thin(xs []int) []int {
	if c.Thin <= 1 {
		return xs
	}
	var out []int
	for i := 0; i < len(xs); i += c.Thin {
		out = append(out, xs[i])
	}
	return out
}

func (c Config) mipTime() time.Duration {
	if c.MIPTimeLimit > 0 {
		return c.MIPTimeLimit
	}
	return 10 * time.Second
}

func (c Config) mipNodes() int {
	if c.MIPMaxNodes > 0 {
		return c.MIPMaxNodes
	}
	return 100000
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// polishMapping runs the configured post-pass on one heuristic mapping.
// k indexes the series within its draw, so every (draw, series) pair owns
// a private RNG stream and polished campaigns stay deterministic for any
// worker count. The result is never worse than the input mapping.
func (c Config) polishMapping(in *core.Instance, mp *core.Mapping, sub int64, k int) (*core.Mapping, error) {
	if c.Polish == "" {
		return mp, nil
	}
	res, err := search.Polish(in, mp, c.Polish, core.Specialized, gen.DeriveRNG(sub, streamPolish, int64(k)), c.PolishBudget)
	if err != nil {
		return nil, fmt.Errorf("polish %q: %w", c.Polish, err)
	}
	return res.Mapping, nil
}

// Point is one x-axis position of a figure.
type Point struct {
	X int
	// Series maps a series name (heuristic, "MIP", "OtO") to the summary
	// of its periods (or ratios, for Figure 11) over the draws.
	Series map[string]stats.Summary
	// Solved counts exact solves that proved optimality at this point
	// (MIP figures only).
	Solved int
}

// Result is one regenerated figure.
type Result struct {
	ID, Title   string
	XLabel      string
	YLabel      string
	SeriesOrder []string
	Points      []Point
	Draws       int
	Seed        int64
	// Normalized marks per-draw ratio series (Figure 11) rather than raw
	// periods.
	Normalized bool
}

// Per-draw stream indices: every consumer of randomness inside one draw
// derives its own child stream from the draw's sub-seed, so adding a
// consumer never perturbs the others.
const (
	streamInstance  int64 = 0
	streamHeuristic int64 = 999
	streamPolish    int64 = 1999
)

// worker is the per-goroutine scratch state of a campaign: one incremental
// evaluator plus the instance's pricing order, rebuilt when the instance
// changes and reset per mapping, so a draw prices its (often many)
// finished mappings without re-allocating the evaluation state or
// re-walking matrices from scratch.
type worker struct {
	in    *core.Instance
	ev    *core.Evaluator
	order []app.TaskID // cached ReverseTopological of w.in
}

// evaluatorFor returns the worker's evaluator bound to in, reset to the
// all-unassigned state.
func (w *worker) evaluatorFor(in *core.Instance) *core.Evaluator {
	if w.in != in {
		w.in = in
		w.ev = core.NewEvaluator(in)
		w.order = in.App.ReverseTopological()
	} else {
		w.ev.Reset()
	}
	return w.ev
}

// price evaluates a complete mapping through the worker's incremental
// evaluator (the campaign replacement for fresh core.PeriodE calls).
func (w *worker) price(in *core.Instance, mp *core.Mapping) (float64, error) {
	if mp.Len() != in.N() {
		return 0, fmt.Errorf("experiments: mapping covers %d tasks, instance has %d", mp.Len(), in.N())
	}
	ev := w.evaluatorFor(in)
	for _, i := range w.order {
		u := mp.Machine(i)
		if u == platform.NoMachine {
			return 0, fmt.Errorf("experiments: task T%d unassigned: %w", int(i)+1, core.ErrIncompleteMapping)
		}
		if err := ev.Assign(i, u); err != nil {
			return 0, err
		}
	}
	return ev.Period(), nil
}

// campaign describes one figure: its metadata, x-axis grid, and the
// function computing every series value of a single draw.
type campaign struct {
	id, title, xlabel, ylabel string
	// order lists the series a draw emits, in render order.
	order      []string
	paperDraws int
	xs         []int
	normalized bool
	// countSolved makes the reduction tally kept draws into Point.Solved
	// (MIP figures).
	countSolved bool
	// run computes one draw at x-axis value x. sub seeds the draw's
	// private random streams (derive children with gen.DeriveRNG /
	// gen.SubSeed, never share an RNG across draws); w is the executing
	// worker's scratch state. ok=false drops the draw (exact budget
	// exhausted), mirroring the paper's rule.
	run func(ctx context.Context, x int, sub int64, w *worker) (map[string]float64, bool, error)
}

// DrawResult is the outcome of one (point, draw) work item — the unit of
// work a distributed campaign ships across the solve fabric. Values maps
// each series the draw emits to its value; OK=false drops the draw from
// the reduction (exact budget exhausted), mirroring the paper's rule.
// Both fields survive a JSON round trip bit-exactly (finite float64s
// re-parse to the same bits), which is what lets a remotely-computed draw
// merge byte-identically with locally-computed ones.
type DrawResult struct {
	Values map[string]float64 `json:"values,omitempty"`
	OK     bool               `json:"ok"`
}

// runCampaign is the concurrent engine shared by every figure. It fans the
// campaign's (point, draw) items out over cfg.Workers goroutines (each
// owning one scratch worker state), cancels the fleet on the first error
// or parent-context cancellation, and reduces the per-draw outputs in
// deterministic sequential order.
func runCampaign(ctx context.Context, cfg Config, c campaign) (*Result, error) {
	draws := cfg.draws(c.paperDraws)
	xs := cfg.thin(c.xs)
	figKey := gen.StringSeed(c.id)
	total := len(xs) * draws

	out := make([][]DrawResult, len(xs))
	for i := range out {
		out[i] = make([]DrawResult, draws)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type item struct{ xi, x, d int }
	jobs := make(chan item)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	workers := cfg.workers()
	if workers > total {
		workers = total
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{}
			for it := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain remaining items
				}
				sub := gen.SubSeed(cfg.seed(), figKey, int64(it.x), int64(it.d))
				vals, ok, err := c.run(ctx, it.x, sub, w)
				if err != nil {
					fail(fmt.Errorf("%s: x=%d draw=%d: %w", c.id, it.x, it.d, err))
					continue
				}
				mu.Lock()
				out[it.xi][it.d] = DrawResult{Values: vals, OK: ok}
				done++
				if cfg.Progress != nil {
					cfg.Progress(done, total)
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for xi, x := range xs {
		for d := 0; d < draws; d++ {
			select {
			case jobs <- item{xi, x, d}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", c.id, err)
	}
	return c.reduce(cfg, xs, out), nil
}

// reduce folds a fully-populated (point, draw) outcome matrix into the
// figure Result, walking items in (point, draw) order — identical to what
// a sequential run appends, whatever order (or process) the items were
// computed in. It is the one reduction shared by the in-process engine and
// the distributed fabric's merge (Assemble), which is what makes a
// distributed campaign byte-identical to a local one.
func (c campaign) reduce(cfg Config, xs []int, out [][]DrawResult) *Result {
	res := &Result{
		ID: c.id, Title: c.title, XLabel: c.xlabel, YLabel: c.ylabel,
		SeriesOrder: c.order, Draws: cfg.draws(c.paperDraws), Seed: cfg.seed(),
		Normalized: c.normalized,
	}
	for xi, x := range xs {
		pt := Point{X: x, Series: map[string]stats.Summary{}}
		samples := map[string][]float64{}
		for d := 0; d < res.Draws; d++ {
			o := out[xi][d]
			if !o.OK {
				continue
			}
			if c.countSolved {
				pt.Solved++
			}
			for _, name := range c.order {
				if v, present := o.Values[name]; present {
					samples[name] = append(samples[name], v)
				}
			}
		}
		for _, name := range c.order {
			pt.Series[name] = stats.Summarize(samples[name])
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// runHeuristic names a heuristic and produces its mapping on an instance.
func runHeuristic(name string, in *core.Instance, seed int64) (*core.Mapping, error) {
	h, err := heuristics.Get(name)
	if err != nil {
		return nil, err
	}
	return h.Fn(in, gen.RNG(seed), heuristics.Options{})
}

// sweepCampaign builds a heuristic-only campaign over x-axis values.
func sweepCampaign(cfg Config, id, title, xlabel string, xs []int, names []string, paperDraws int,
	draw func(x int, rng *rand.Rand) (*core.Instance, error)) campaign {
	return campaign{
		id: id, title: title, xlabel: xlabel, ylabel: "period (ms)",
		order: names, paperDraws: paperDraws, xs: xs,
		run: func(_ context.Context, x int, sub int64, w *worker) (map[string]float64, bool, error) {
			in, err := draw(x, gen.DeriveRNG(sub, streamInstance))
			if err != nil {
				return nil, false, err
			}
			vals := make(map[string]float64, len(names))
			for k, name := range names {
				mp, err := runHeuristic(name, in, gen.SubSeed(sub, streamHeuristic))
				if err != nil {
					return nil, false, fmt.Errorf("%s: %w", name, err)
				}
				if mp, err = cfg.polishMapping(in, mp, sub, k); err != nil {
					return nil, false, fmt.Errorf("%s: %w", name, err)
				}
				p, err := w.price(in, mp)
				if err != nil {
					return nil, false, fmt.Errorf("%s: %w", name, err)
				}
				vals[name] = p
			}
			return vals, true, nil
		},
	}
}

func rangeInts(lo, hi, step int) []int {
	var out []int
	for x := lo; x <= hi; x += step {
		out = append(out, x)
	}
	return out
}

// fig5Campaign — specialized mappings, m=50 machines, p=5 types,
// n=50..150 tasks; all six heuristics. Paper finding: H1 and H4f are far
// behind the rest.
func fig5Campaign(cfg Config) campaign {
	return sweepCampaign(cfg, "fig5", "Specialized mappings, m=50, p=5", "number of tasks",
		rangeInts(50, 150, 10),
		[]string{"H1", "H2", "H3", "H4", "H4w", "H4f"}, 30,
		func(n int, rng *rand.Rand) (*core.Instance, error) {
			return gen.Chain(gen.Default(n, 5, 50), rng)
		})
}

// fig6Campaign — specialized mappings, m=10, p=2, n=10..100; H2, H3, H4,
// H4w. Paper finding: H4 sits slightly under the others (its f factor).
func fig6Campaign(cfg Config) campaign {
	return sweepCampaign(cfg, "fig6", "Specialized mappings, m=10, p=2", "number of tasks",
		rangeInts(10, 100, 10),
		[]string{"H2", "H3", "H4", "H4w"}, 30,
		func(n int, rng *rand.Rand) (*core.Instance, error) {
			return gen.Chain(gen.Default(n, 2, 10), rng)
		})
}

// fig7Campaign — specialized mappings on a large platform, m=100, p=5,
// n=100..200; H2, H3, H4w. Paper finding: H4w is the best.
func fig7Campaign(cfg Config) campaign {
	return sweepCampaign(cfg, "fig7", "Specialized mappings, m=100, p=5", "number of tasks",
		rangeInts(100, 200, 10),
		[]string{"H2", "H3", "H4w"}, 30,
		func(n int, rng *rand.Rand) (*core.Instance, error) {
			return gen.Chain(gen.Default(n, 5, 100), rng)
		})
}

// fig8Campaign — high-failure campaign: m=10, p=5, f in [0, 0.1],
// n=10..100, all heuristics. Paper finding: periods blow up with n and
// only H2 resists.
func fig8Campaign(cfg Config) campaign {
	return sweepCampaign(cfg, "fig8", "High failure rates (f <= 10%), m=10, p=5", "number of tasks",
		rangeInts(10, 100, 10),
		[]string{"H1", "H2", "H3", "H4", "H4w", "H4f"}, 30,
		func(n int, rng *rand.Rand) (*core.Instance, error) {
			pr := gen.Default(n, 5, 10)
			pr.FMin, pr.FMax = 0, 0.1
			return gen.Chain(pr, rng)
		})
}

// fig9Campaign — one-to-one regime: m=100 machines, n=100 tasks, task-only
// failures (f[i][u] = f[i]); the x axis is the number of types
// p = 20..100. Series: H2, H3, H4w and the optimal one-to-one mapping
// (bottleneck assignment; "OtO"). Paper findings: H4w is closest to
// optimal (factor ~1.28 on average) and all heuristics converge as p → m.
func fig9Campaign(cfg Config) campaign {
	names := []string{"H2", "H3", "H4w"}
	return campaign{
		id: "fig9", title: "One-to-one regime, m=100, n=100, f[i][u]=f[i]",
		xlabel: "number of types", ylabel: "period (ms)",
		order:      append(append([]string{}, names...), "OtO"),
		paperDraws: 100, xs: rangeInts(20, 100, 10),
		run: func(_ context.Context, p int, sub int64, w *worker) (map[string]float64, bool, error) {
			pr := gen.Default(100, p, 100)
			pr.TaskOnlyFailures = true
			in, err := gen.Chain(pr, gen.DeriveRNG(sub, streamInstance))
			if err != nil {
				return nil, false, err
			}
			vals := make(map[string]float64, len(names)+1)
			for k, name := range names {
				mp, err := runHeuristic(name, in, gen.SubSeed(sub, streamHeuristic))
				if err != nil {
					return nil, false, err
				}
				if mp, err = cfg.polishMapping(in, mp, sub, k); err != nil {
					return nil, false, err
				}
				v, err := w.price(in, mp)
				if err != nil {
					return nil, false, err
				}
				vals[name] = v
			}
			mp, err := oto.OptimalTaskOnly(in)
			if err != nil {
				return nil, false, err
			}
			otoPeriod, err := w.price(in, mp)
			if err != nil {
				return nil, false, err
			}
			vals["OtO"] = otoPeriod
			return vals, true, nil
		},
	}
}

// mipCampaign shares the Figure 10/11/12 logic: heuristics plus the exact
// MIP (warm-started with the best heuristic mapping — the best polished
// one when Config.Polish is set). When normalize is true the series hold
// per-draw heuristic/MIP period ratios (Figure 11); otherwise raw periods.
// Draws where the MIP fails to prove optimality within its budget are
// dropped, mirroring the paper's "results reported only if enough
// successful MIP runs" rule; Point.Solved counts successes.
func mipCampaign(cfg Config, id, title string, xs []int, m, p int, names []string, normalize bool) campaign {
	ylabel := "period (ms)"
	if normalize {
		ylabel = "period / MIP period"
	}
	order := append(append([]string{}, names...), "MIP")
	if normalize {
		order = names
	}
	return campaign{
		id: id, title: title, xlabel: "number of tasks", ylabel: ylabel,
		order: order, paperDraws: 30, xs: xs,
		normalized: normalize, countSolved: true,
		run: func(_ context.Context, n int, sub int64, w *worker) (map[string]float64, bool, error) {
			in, err := gen.Chain(gen.Default(n, p, m), gen.DeriveRNG(sub, streamInstance))
			if err != nil {
				return nil, false, err
			}
			periods := map[string]float64{}
			var warm *core.Mapping
			warmPeriod := math.Inf(1)
			for k, name := range names {
				h, err := heuristics.Get(name)
				if err != nil {
					return nil, false, err
				}
				mp, err := h.Fn(in, gen.DeriveRNG(sub, streamHeuristic), heuristics.Options{})
				if err != nil {
					return nil, false, err
				}
				if mp, err = cfg.polishMapping(in, mp, sub, k); err != nil {
					return nil, false, err
				}
				v, err := w.price(in, mp)
				if err != nil {
					return nil, false, err
				}
				periods[name] = v
				if v < warmPeriod {
					warmPeriod = v
					warm = mp
				}
			}
			// Strengthen the incumbent with a short DFS burst (the
			// independent exact solver); a near-optimal warm start lets
			// the branch and bound spend its budget proving the bound
			// instead of hunting for solutions. The burst is node-bounded
			// so a binding budget stays deterministic.
			if eres, err := exact.Solve(in, exact.Options{
				Rule:      core.Specialized,
				Incumbent: warm,
				MaxNodes:  int64(cfg.mipNodes()),
				TimeLimit: cfg.mipTime() / 5,
				Workers:   cfg.ExactWorkers,
			}); err == nil && eres.Period < warmPeriod {
				warm, warmPeriod = eres.Mapping, eres.Period
			}
			mres, err := milp.Solve(in, milp.Options{
				Rule:      core.Specialized,
				WarmStart: warm,
				TimeLimit: cfg.mipTime(),
				MaxNodes:  cfg.mipNodes(),
			})
			if err != nil {
				return nil, false, err
			}
			if !mres.Proven || mres.Mapping == nil {
				return nil, false, nil // budget exceeded: the paper drops such draws too
			}
			vals := make(map[string]float64, len(names)+1)
			for _, name := range names {
				v := periods[name]
				if normalize {
					v /= mres.Period
				}
				vals[name] = v
			}
			if !normalize {
				vals["MIP"] = mres.Period
			}
			return vals, true, nil
		},
	}
}

// fig10Campaign — small instances, m=5 machines, p=2 types, n=2..15 tasks,
// all six heuristics against the exact MIP optimum. Paper finding: H4w is
// again the best heuristic; H2 and H4 are close.
func fig10Campaign(cfg Config) campaign {
	return mipCampaign(cfg, "fig10", "Heuristics vs MIP, m=5, p=2",
		rangeInts(2, 15, 1), 5, 2,
		[]string{"H1", "H2", "H3", "H4", "H4w", "H4f"}, false)
}

// fig11Campaign — the Figure 10 campaign normalized per draw by the MIP
// optimum. Paper finding: H2, H3 and H4w end up at average factors of
// roughly 1.73, 1.58 and 1.33 from the optimal.
func fig11Campaign(cfg Config) campaign {
	return mipCampaign(cfg, "fig11", "Normalization against the MIP, m=5, p=2",
		rangeInts(2, 15, 1), 5, 2,
		[]string{"H1", "H2", "H3", "H4", "H4w", "H4f"}, true)
}

// fig12Campaign — larger exact campaign, m=9, p=4, n=5..20; H2, H3, H4,
// H4w vs MIP. Paper finding: past ~15 tasks the MIP stops finding
// (proving) solutions — visible here as Solved dropping to 0 under the
// node/time budgets.
func fig12Campaign(cfg Config) campaign {
	return mipCampaign(cfg, "fig12", "Heuristics vs MIP, m=9, p=4",
		rangeInts(5, 20, 1), 9, 4,
		[]string{"H2", "H3", "H4", "H4w"}, false)
}

// figureCampaign maps a figure number to its campaign description.
func figureCampaign(num int, cfg Config) (campaign, error) {
	switch num {
	case 5:
		return fig5Campaign(cfg), nil
	case 6:
		return fig6Campaign(cfg), nil
	case 7:
		return fig7Campaign(cfg), nil
	case 8:
		return fig8Campaign(cfg), nil
	case 9:
		return fig9Campaign(cfg), nil
	case 10:
		return fig10Campaign(cfg), nil
	case 11:
		return fig11Campaign(cfg), nil
	case 12:
		return fig12Campaign(cfg), nil
	}
	return campaign{}, fmt.Errorf("experiments: no figure %d (have 5..12)", num)
}

// Figure runs one figure by number (5..12).
func Figure(num int, cfg Config) (*Result, error) {
	return FigureCtx(context.Background(), num, cfg)
}

// FigureCtx is Figure with cancellation: the campaign stops at the next
// draw boundary once ctx is done and returns the context's error.
func FigureCtx(ctx context.Context, num int, cfg Config) (*Result, error) {
	c, err := figureCampaign(num, cfg)
	if err != nil {
		return nil, err
	}
	return runCampaign(ctx, cfg, c)
}

// Numbers lists the reproducible figures.
func Numbers() []int { return []int{5, 6, 7, 8, 9, 10, 11, 12} }
