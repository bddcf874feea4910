// Command mfexp regenerates the paper's evaluation figures (5..12) as text
// tables: one row per x-axis point, one column per heuristic/solver series
// (mean period over the random draws, or mean ratio for Figure 11).
//
// Usage:
//
//	mfexp -fig 5            # one figure, paper-scale draws
//	mfexp -all -draws 5     # all figures, 5 draws per point (quick)
//	mfexp -fig 10 -mip-time 5s
//	mfexp -fig 9 -workers 8 -progress
//	mfexp -fig 12 -exact-workers 4   # parallel DFS burst per draw
//	mfexp -fig 8 -polish ls # hill-climb post-pass on every draw
//
// -polish refines every heuristic mapping with a bounded local-search
// post-pass (ls = hill climbing, anneal = simulated annealing) before the
// series are priced; -polish-budget bounds each pass. Annealing auto-tunes
// its starting temperature from each draw's own period scale (acceptance-
// ratio targeting), so the same -polish anneal flags work across figures
// whose periods differ by orders of magnitude — no per-figure tweaking.
//
// Campaigns are deterministic for a given -seed, whatever -workers is —
// including polished campaigns, which derive one RNG stream per (draw,
// series) pair (for the MIP figures 10..12 this additionally needs the
// node budget, not the -mip-time wall clock, to be the binding solver
// limit); Ctrl-C cancels at the next draw boundary.
//
// -coord http://host:9344 runs the campaign on a solve fabric (cmd/mfcoord
// + cmd/mfworker) instead of locally. The merged figure is byte-identical
// to the local run for any fleet size; -workers and -progress are local
// knobs and do not apply.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"microfab/internal/experiments"
	"microfab/internal/fabric"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure number (5..12)")
		all      = flag.Bool("all", false, "run every figure")
		draws    = flag.Int("draws", 0, "random draws per point (0 = the paper's count)")
		thin     = flag.Int("thin", 0, "keep every k-th x point (0 = all)")
		seed     = flag.Int64("seed", 1, "campaign seed")
		mipTime  = flag.Duration("mip-time", 10*time.Second, "time budget per exact MIP solve")
		workers  = flag.Int("workers", 0, "concurrent draw workers (0 = all CPUs, 1 = sequential)")
		exactW   = flag.Int("exact-workers", 0, "workers of each draw's exact DFS burst (0/1 = sequential; figures 10..12)")
		exactNIB = flag.Bool("exact-no-inc-bound", false, "force the exact burst's bound onto from-scratch recomputation (ablation; results are byte-identical)")
		polish   = flag.String("polish", "", "local-search post-pass per draw: ls | anneal")
		pBudget  = flag.Int("polish-budget", 0, "post-pass budget per mapping (0 = default)")
		progress = flag.Bool("progress", false, "report draw progress on stderr")
		coord    = flag.String("coord", "", "run on a solve fabric: coordinator base URL (e.g. http://host:9344)")
	)
	flag.Parse()
	cfg := experiments.Config{
		Draws: *draws, Thin: *thin, Seed: *seed, MIPTimeLimit: *mipTime,
		Workers: *workers, ExactWorkers: *exactW, ExactNoIncBound: *exactNIB,
		Polish: *polish, PolishBudget: *pBudget,
	}
	if *progress {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d draws", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	var figs []int
	switch {
	case *all:
		figs = experiments.Numbers()
	case *fig != 0:
		figs = []int{*fig}
	default:
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	for _, n := range figs {
		start := time.Now()
		var r *experiments.Result
		var err error
		if *coord != "" {
			r, err = fabric.SubmitCampaign(ctx, nil, *coord, fabric.CampaignSpec{
				Figure: n, Draws: *draws, Seed: *seed, Thin: *thin,
				MIPTimeLimitMs: mipTime.Milliseconds(), ExactWorkers: *exactW, ExactNoIncB: *exactNIB,
				Polish: *polish, PolishBudget: *pBudget,
			})
		} else {
			r, err = experiments.FigureCtx(ctx, n, cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mfexp:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.Render(r))
		fmt.Printf("(%s in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
