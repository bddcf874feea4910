package main

import (
	"encoding/json"
	"fmt"
	"time"

	"microfab/internal/core"
	"microfab/internal/experiments"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/oto"
	"microfab/internal/search"
	"microfab/internal/stats"
)

// figRun is one experiments.Figure call of the heuristic campaign.
type figRun struct {
	fig       int
	cfg       experiments.Config
	committed bool // series pinned by the committed golden
	draws     []drawRef
	lbMean    []float64 // per point: mean core.LowerBoundPeriod over its draws
}

func (r figRun) key(x int, series string) string {
	return fmt.Sprintf("fig%d/seed%d/x=%d/%s", r.fig, r.cfg.Seed, x, series)
}

// heuristicCampaigns lists the campaign's Figure calls: Figure 8 with the
// "ls" polish post-pass and a thinned Figure 9 (one-to-one, m=100, with
// the bottleneck-assignment optimum) under campaign seed 1, plus a thinner
// seed-drawn copy of each under the run's seed.
func heuristicCampaigns(seed int64) []figRun {
	c := func(s int64, draws, thin int, polish string) experiments.Config {
		return experiments.Config{Seed: s, Draws: draws, Thin: thin, Polish: polish, Workers: 1}
	}
	return []figRun{
		{fig: 8, cfg: c(1, 3, 1, "ls"), committed: true},
		{fig: 9, cfg: c(1, 3, 2, ""), committed: true},
		{fig: 8, cfg: c(seed, 1, 3, "ls")},
		{fig: 9, cfg: c(seed, 1, 4, "")},
	}
}

type goldenSeries struct {
	Mean float64 `json:"mean"`
	N    int     `json:"n"`
}

// heuristicGolden runs the committed Figure calls and returns their
// series, keyed by figRun.key.
func heuristicGolden() (map[string]goldenSeries, error) {
	out := map[string]goldenSeries{}
	for _, r := range heuristicCampaigns(1) {
		if !r.committed {
			continue
		}
		res, err := experiments.Figure(r.fig, r.cfg)
		if err != nil {
			return nil, err
		}
		for _, pt := range res.Points {
			for _, s := range res.SeriesOrder {
				out[r.key(pt.X, s)] = goldenSeries{Mean: pt.Series[s].Mean, N: pt.Series[s].N}
			}
		}
	}
	return out, nil
}

// heuristicCampaign times experiments.Figure on the runs above at
// Workers=1. Its work sits in the heuristics, the polish search and the
// core evaluator kernels; it never touches the exact solver or the MILP.
type heuristicCampaign struct {
	runs   []figRun
	golden map[string]goldenSeries
	fig8   []*core.Instance // committed Figure 8 instances, for kernel timings
}

func (w *heuristicCampaign) setup(seed int64) error {
	raw, err := corpusFS.ReadFile("corpus/golden-heuristic.json")
	if err != nil {
		return err
	}
	w.golden = nil
	if err := json.Unmarshal(raw, &w.golden); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	w.runs = heuristicCampaigns(seed)
	w.fig8 = w.fig8[:0]
	for i := range w.runs {
		r := &w.runs[i]
		plan, err := experiments.FigurePlan(r.fig, r.cfg)
		if err != nil {
			return err
		}
		for _, x := range plan.Xs {
			sum := 0.0
			for d := 0; d < plan.Draws; d++ {
				ref := drawRef{fig: r.fig, x: x, d: d, seed: r.cfg.Seed}
				in, err := drawInstance(ref)
				if err != nil {
					return err
				}
				sum += core.LowerBoundPeriod(in)
				r.draws = append(r.draws, ref)
				if r.committed && r.fig == 8 {
					w.fig8 = append(w.fig8, in)
				}
			}
			r.lbMean = append(r.lbMean, sum/float64(plan.Draws))
		}
	}
	return nil
}

func (w *heuristicCampaign) pass(tr *tracer) (*passResult, error) {
	p := &passResult{counts: map[string]float64{}, layer: map[string]float64{}}
	var lt *heuristicLayers
	if tr != nil {
		lt = &heuristicLayers{}
	}
	for _, r := range w.runs {
		var res *experiments.Result
		var err error
		if tr == nil {
			cfg := r.cfg
			// Workers=1 completes draws in order, one at a time, so the
			// gap between progress calls is one draw's time.
			last, lastCPU := time.Now(), cpuTime()
			cfg.Progress = func(done, total int) {
				p.op(r.committed, time.Since(last), cpuTime()-lastCPU)
				last, lastCPU = time.Now(), cpuTime() // op may sample the host
			}
			res, err = experiments.Figure(r.fig, cfg)
		} else {
			res, err = w.replay(tr, lt, r, p)
		}
		if err != nil {
			return nil, err
		}
		p.attempted += len(r.draws)
		p.items += len(r.draws)
		p.solved += len(r.draws)
		ok := true
		for xi, pt := range res.Points {
			for _, s := range res.SeriesOrder {
				sm := pt.Series[s]
				p.values = append(p.values, sm.Mean, float64(sm.N))
				if r.committed {
					p.quality = append(p.quality, sm.Mean/r.lbMean[xi])
				}
				if sm.N != r.cfg.Draws {
					ok = false
					p.fail("%s: %d draws, want %d", r.key(pt.X, s), sm.N, r.cfg.Draws)
				}
				if !r.committed {
					continue
				}
				g, found := w.golden[r.key(pt.X, s)]
				if !found || g.N != sm.N || relDiff(g.Mean, sm.Mean) > 1e-9 {
					ok = false
					p.fail("%s: series mean %v over %d draws, golden %v over %d", r.key(pt.X, s), sm.Mean, sm.N, g.Mean, g.N)
				}
			}
		}
		if ok {
			p.sloOK += len(r.draws)
		} else {
			p.failed += len(r.draws)
		}
	}
	p.counts["solved_frac"] = frac(p.solved, p.items)
	p.counts["quality_ratio"] = mean(p.quality)
	if lt != nil {
		lt.report(p, tr)
	}
	return p, nil
}

type heuristicLayers struct {
	draws, heurCalls, otoCalls, probes, accepted int
	gen, heur, polish, oto                       time.Duration
	rootIDs                                      []int
}

// replay recomputes a Figure call draw by draw exactly as the engine's
// sweep (Figure 8) and one-to-one (Figure 9) campaigns do — gen →
// heuristics → polish → price (→ one-to-one optimum) — with spans around
// every layer call, then reduces the draws like the engine does.
func (w *heuristicCampaign) replay(tr *tracer, lt *heuristicLayers, r figRun, p *passResult) (*experiments.Result, error) {
	names := []string{"H1", "H2", "H3", "H4", "H4w", "H4f"}
	order := names
	if r.fig == 9 {
		names = []string{"H2", "H3", "H4w"}
		order = append(append([]string{}, names...), "OtO")
	}
	res := &experiments.Result{SeriesOrder: order}
	samples := map[int]map[string][]float64{}
	var xs []int
	var pr pricer
	for _, ref := range r.draws {
		item := ref.String()
		t0, c0 := time.Now(), cpuTime()
		root := tr.begin("experiments.draw", item, 0)
		lt.rootIDs = append(lt.rootIDs, root)
		lt.draws++
		sub := ref.sub()
		id := tr.begin("gen.instance", item, root)
		t := time.Now()
		in, err := drawInstance(ref)
		lt.gen += time.Since(t)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if samples[ref.x] == nil {
			samples[ref.x] = map[string][]float64{}
			xs = append(xs, ref.x)
		}
		for k, name := range names {
			h, err := heuristics.Get(name)
			if err != nil {
				return nil, err
			}
			id := tr.begin("heuristics.solve", item+"/"+name, root)
			t := time.Now()
			mp, err := h.Fn(in, gen.RNG(gen.SubSeed(sub, streamHeuristic)), heuristics.Options{})
			lt.heur += time.Since(t)
			lt.heurCalls++
			tr.end(id)
			if err != nil {
				return nil, err
			}
			if r.cfg.Polish != "" {
				id := tr.begin("search.polish", item+"/"+name, root)
				t := time.Now()
				sr, err := search.Polish(in, mp, r.cfg.Polish, core.Specialized, gen.DeriveRNG(sub, streamPolish, int64(k)), r.cfg.PolishBudget)
				lt.polish += time.Since(t)
				tr.end(id)
				if err != nil {
					return nil, err
				}
				lt.probes += sr.Probes
				lt.accepted += sr.Accepted
				mp = sr.Mapping
			}
			id = tr.begin("core.price", item+"/"+name, root)
			v, err := pr.price(in, mp)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			samples[ref.x][name] = append(samples[ref.x][name], v)
		}
		if r.fig == 9 {
			id := tr.begin("oto.solve", item, root)
			t := time.Now()
			mp, err := oto.OptimalTaskOnly(in)
			lt.oto += time.Since(t)
			lt.otoCalls++
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("core.price", item+"/OtO", root)
			v, err := pr.price(in, mp)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			samples[ref.x]["OtO"] = append(samples[ref.x]["OtO"], v)
		}
		tr.end(root)
		p.op(r.committed, time.Since(t0), cpuTime()-c0)
	}
	for _, x := range xs {
		pt := experiments.Point{X: x, Series: map[string]stats.Summary{}}
		for _, s := range order {
			pt.Series[s] = stats.Summarize(samples[x][s])
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func (lt *heuristicLayers) report(p *passResult, tr *tracer) {
	l := p.layer
	l["gen.instance_ms"] = ms(lt.gen) / float64(lt.draws)
	l["heuristics.solve_ms"] = ms(lt.heur) / float64(lt.heurCalls)
	l["search.polish_s"] = lt.polish.Seconds()
	l["search.probes"] = float64(lt.probes)
	l["search.accept_ratio"] = frac(lt.accepted, lt.probes)
	l["search.ns_per_probe"] = float64(lt.polish.Nanoseconds()) / float64(max(lt.probes, 1))
	l["oto.solve_ms"] = ms(lt.oto) / float64(max(lt.otoCalls, 1))
	l["experiments.engine_frac"] = engineFrac(tr, lt.rootIDs)
	p.counts["search.probes"] = float64(lt.probes)
}

// verify has nothing left to check: the golden comparison and the
// per-series draw counts run on every pass.
func (w *heuristicCampaign) verify() []string { return nil }

// extras times the core evaluator kernels the heuristics and the polish
// search lean on, over the committed Figure 8 instances.
func (w *heuristicCampaign) extras(*tracer) (map[string]float64, []string) {
	const reps = 200
	var assigns, trials int
	var assignT, trialT time.Duration
	for _, in := range w.fig8 {
		ev := core.NewEvaluator(in)
		order := in.App.ReverseTopological()
		out := make([]float64, in.M())
		best := make([]int, in.N())
		// Greedy root-first descent: time TrialAll at every depth, then
		// take the cheapest landing.
		for _, i := range order {
			t := time.Now()
			for r := 0; r < reps; r++ {
				ev.TrialAll(i, out)
			}
			trialT += time.Since(t)
			trials += reps
			b := 0
			for u := range out {
				if out[u] < out[b] {
					b = u
				}
			}
			best[i] = b
			if err := ev.Assign(i, mID(b)); err != nil {
				return nil, []string{fmt.Sprintf("kernel timing: %v", err)}
			}
		}
		// Replay the finished mapping from scratch reps times.
		t := time.Now()
		for r := 0; r < reps; r++ {
			ev.Reset()
			for _, i := range order {
				_ = ev.Assign(i, mID(best[i])) // accepted once above
			}
		}
		assignT += time.Since(t)
		assigns += reps * len(order)
	}
	return map[string]float64{
		"core.assign_ns":   float64(assignT.Nanoseconds()) / float64(assigns),
		"core.trialall_ns": float64(trialT.Nanoseconds()) / float64(trials),
	}, nil
}
