// Command microfab solves a mapping problem instance: it reads an instance
// JSON file (see cmd/mfgen to create one), runs the requested method, and
// prints the mapping, per-machine periods and throughput. -out also writes
// the mapping to a JSON file for cmd/mfsim, with its period and, for
// -solver exact, whether the search proved it optimal ("proven") and the
// nodes it explored ("nodes").
//
// Usage:
//
//	microfab -in instance.json [-solver H4w] [-rule specialized]
//	         [-polish ls|anneal] [-polish-budget N]
//	         [-seed 1] [-out mapping.json]
//	microfab -in instance.json -solver exact [-rule general] [-workers 8]
//	         [-warm=false]
//	microfab -fig 5 [-draws 5] [-thin 2] [-workers 8] [-seed 1]
//	         [-polish ls|anneal]
//
// Solvers: H1 H2 H2r H3 H4 H4w H4f MIP exact oto oto-greedy ls anneal
// (see package microfab's Solve for their meaning; -method is an alias
// kept for compatibility). -polish refines the solver's mapping with a
// bounded local-search post-pass before reporting.
//
// With -solver exact the branch and bound honors -rule directly and fans
// its root split out over -workers goroutines (0 = all CPUs); proven
// results are byte-identical for any worker count. -warm (default true)
// seeds the incumbent with the H4w heuristic on top of the search's own
// greedy restart dive, so interrupted runs report near-optimal mappings;
// -warm=false runs the search cold.
//
// With -fig the instance flags are ignored and the paper's evaluation
// figure is regenerated through the facade instead, fanning draws out
// over -workers goroutines; -polish then applies the post-pass to every
// draw of the campaign (see cmd/mfexp for the full campaign CLI).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	microfab "microfab"
	"microfab/internal/core"
	"microfab/internal/instance"
	"microfab/internal/platform"
)

func main() {
	var (
		inPath  = flag.String("in", "", "instance JSON file (required unless -fig)")
		solver  = flag.String("solver", "", "solving method (H1 H2 H2r H3 H4 H4w H4f MIP exact oto oto-greedy ls anneal)")
		method  = flag.String("method", "", "alias of -solver")
		rule    = flag.String("rule", "specialized", "rule to validate the result against: one-to-one (oto) | specialized | general")
		seed    = flag.Int64("seed", 1, "random seed (H1/anneal/polish; campaign seed with -fig)")
		polish  = flag.String("polish", "", "local-search post-pass on the solver's mapping: ls | anneal")
		pBudget = flag.Int("polish-budget", 0, "post-pass budget: moves priced (ls) or proposals (anneal); 0 = default")
		outPath = flag.String("out", "", "write the mapping as JSON to this file")
		xout    = flag.Float64("xout", 0, "if > 0, also print the input plan for this many finished products")
		fig     = flag.Int("fig", 0, "regenerate this evaluation figure (5..12) instead of solving an instance")
		draws   = flag.Int("draws", 0, "with -fig: random draws per point (0 = the paper's count)")
		thin    = flag.Int("thin", 0, "with -fig: keep every k-th x point (0 = all)")
		workers = flag.Int("workers", 0, "concurrent workers: draw workers with -fig, root-split workers with -solver exact (0 = all CPUs, 1 = sequential)")
		warm    = flag.Bool("warm", true, "with -solver exact: seed the incumbent with the H4w heuristic")
	)
	flag.Parse()
	if *solver != "" && *method != "" && *solver != *method {
		fmt.Fprintf(os.Stderr, "microfab: -solver %s and -method %s conflict; pass one\n", *solver, *method)
		os.Exit(2)
	}
	name := *solver
	if name == "" {
		name = *method
	}
	if name == "" {
		name = "H4w"
	}
	if *fig != 0 {
		if err := runFigure(*fig, *draws, *thin, *workers, *seed, *polish, *pBudget); err != nil {
			fmt.Fprintln(os.Stderr, "microfab:", err)
			os.Exit(1)
		}
		return
	}
	if *inPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*inPath, name, *rule, *seed, *outPath, *xout, *polish, *pBudget, *workers, *warm); err != nil {
		fmt.Fprintln(os.Stderr, "microfab:", err)
		os.Exit(1)
	}
}

func runFigure(fig, draws, thin, workers int, seed int64, polish string, polishBudget int) error {
	r, err := microfab.Figure(fig, microfab.ExpConfig{
		Draws: draws, Thin: thin, Seed: seed, Workers: workers,
		Polish: polish, PolishBudget: polishBudget,
	})
	if err != nil {
		return err
	}
	fmt.Print(microfab.RenderFigure(r))
	return nil
}

func run(inPath, method, ruleName string, seed int64, outPath string, xout float64, polish string, polishBudget int, workers int, warm bool) error {
	in, err := instance.Load(inPath)
	if err != nil {
		return err
	}
	rule, err := core.ParseRule(ruleName)
	if err != nil {
		return err
	}

	var mp *core.Mapping
	var exactRes *microfab.ExactResult
	if method == "exact" {
		// The exact path honors -rule and -workers directly: the DFS
		// branch and bound solves any of the three rules, and its root
		// split fans out over the worker pool (proven results are
		// byte-identical for any worker count).
		w := workers
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		var err error
		exactRes, err = microfab.SolveExact(in, microfab.ExactOptions{
			Rule:      rule,
			TimeLimit: 30 * time.Second,
			Workers:   w,
			WarmStart: warm,
		})
		if err != nil {
			return err
		}
		mp = exactRes.Mapping
	} else {
		var err error
		mp, err = microfab.Solve(in, method, seed)
		if err != nil {
			return err
		}
	}
	if err := mp.CheckRule(in.App, rule); err != nil {
		return fmt.Errorf("%s produced a mapping outside rule %s: %w", method, ruleName, err)
	}
	if polish != "" {
		polished, err := microfab.Polish(in, mp, polish, rule, seed, polishBudget)
		if err != nil {
			return fmt.Errorf("polish %s: %w", polish, err)
		}
		mp = polished
	}
	ev, err := microfab.Evaluate(in, mp)
	if err != nil {
		return err
	}

	fmt.Printf("instance : %s on %d machines\n", in.App, in.M())
	if polish != "" {
		fmt.Printf("method   : %s + %s polish (rule %s)\n", method, polish, ruleName)
	} else {
		fmt.Printf("method   : %s (rule %s)\n", method, ruleName)
	}
	fmt.Printf("mapping  : %s\n", mp)
	if exactRes != nil {
		fmt.Printf("search   : proven=%v, %d nodes\n", exactRes.Proven, exactRes.Nodes)
	}
	fmt.Printf("period   : %.2f ms (critical machine %s)\n", ev.Period, in.Platform.Name(ev.Critical))
	fmt.Printf("throughput: %.6f products/ms\n", ev.Throughput)
	for u, p := range ev.MachinePeriods {
		if p == 0 {
			continue
		}
		mu := platform.MachineID(u)
		fmt.Printf("  %-6s %10.2f ms  tasks %v\n", in.Platform.Name(mu), p, mp.TasksOn(mu))
	}
	if xout > 0 {
		plan, err := microfab.PlanInputs(in, mp, xout)
		if err != nil {
			return err
		}
		fmt.Printf("inputs for %.0f products: %.1f raw products total\n", xout, plan.Total)
		for k, v := range plan.PerSource {
			fmt.Printf("  source %d: %.1f\n", k, v)
		}
	}
	if outPath != "" {
		mj := instance.FromMapping(mp, "produced by cmd/microfab -solver "+method)
		mj.Period = ev.Period
		if exactRes != nil {
			mj.Proven, mj.Nodes = &exactRes.Proven, exactRes.Nodes
		}
		if err := writeMapping(outPath, mj); err != nil {
			return err
		}
		fmt.Printf("mapping written to %s\n", outPath)
	}
	return nil
}

func writeMapping(path string, mj *instance.MappingJSON) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mj.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
