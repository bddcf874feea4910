package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/experiments"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/milp"
	"microfab/internal/mip"
)

// mipNodes is the campaign's MIPMaxNodes: both the DFS burst and the MILP
// stop on it, so it alone decides which draws are proven and kept.
const mipNodes = 100

// mipCampaign runs Figure 10 draws (m=5, p=2) at small n and the smallest
// Figure 12 point (m=9, p=4) single-worker through experiments.RunDraws: a
// committed block under campaign seed 1 plus a seed-drawn block under the
// run's seed.
type mipCampaign struct {
	draws []drawRef
	ins   []*core.Instance
	lbs   []float64
	// mip holds each draw's reported MIP value from the last untraced
	// pass (NaN when the draw was dropped), for verify.
	mip []float64
}

func mipConfig(seed int64) experiments.Config {
	return experiments.Config{Seed: seed, Workers: 1, MIPMaxNodes: mipNodes, MIPTimeLimit: watchdog}
}

func mipSeries(fig int) []string {
	if fig == 12 {
		return []string{"H2", "H3", "H4", "H4w"}
	}
	return []string{"H1", "H2", "H3", "H4", "H4w", "H4f"}
}

func (w *mipCampaign) setup(seed int64) error {
	w.draws = w.draws[:0]
	add := func(fig, x, d0, d1 int, s int64, committed bool) error {
		plan, err := experiments.FigurePlan(fig, mipConfig(s))
		if err != nil {
			return err
		}
		if !containsInt(plan.Xs, x) || d1 > plan.Draws {
			return fmt.Errorf("fig%d has no draws [%d,%d) at x=%d", fig, d0, d1, x)
		}
		for d := d0; d < d1; d++ {
			w.draws = append(w.draws, drawRef{fig: fig, x: x, d: d, seed: s, committed: committed})
		}
		return nil
	}
	for _, b := range []struct {
		fig, x, d0, d1 int
		seed           int64
		committed      bool
	}{
		{10, 4, 0, 4, 1, true}, {10, 5, 0, 3, 1, true}, {10, 6, 0, 1, 1, true}, {12, 5, 0, 1, 1, true},
		{10, 4, 0, 2, seed, false},
	} {
		if err := add(b.fig, b.x, b.d0, b.d1, b.seed, b.committed); err != nil {
			return err
		}
	}
	w.ins, w.lbs = w.ins[:0], w.lbs[:0]
	for _, r := range w.draws {
		in, err := drawInstance(r)
		if err != nil {
			return err
		}
		w.ins = append(w.ins, in)
		w.lbs = append(w.lbs, core.LowerBoundPeriod(in))
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (w *mipCampaign) pass(tr *tracer) (*passResult, error) {
	p := &passResult{counts: map[string]float64{}, layer: map[string]float64{}}
	var lt *mipLayers
	if tr != nil {
		lt = &mipLayers{}
	}
	if tr == nil {
		w.mip = make([]float64, len(w.draws))
	}
	for k, r := range w.draws {
		c0, t := cpuTime(), time.Now()
		var dr experiments.DrawResult
		if tr == nil {
			res, err := experiments.RunDraws(context.Background(), r.fig, mipConfig(r.seed), r.x, r.d, r.d+1)
			if err != nil {
				return nil, err
			}
			dr = res[0]
		} else {
			var err error
			if dr, err = w.replay(tr, lt, k); err != nil {
				return nil, err
			}
		}
		p.op(r.committed, time.Since(t), cpuTime()-c0)
		p.attempted++
		p.sloOK++
		if r.committed {
			p.items++
		}
		p.values = append(p.values, drawValues(dr, append(mipSeries(r.fig), "MIP"))...)
		if tr == nil {
			w.mip[k] = math.NaN()
		}
		if dr.OK {
			if tr == nil {
				w.mip[k] = dr.Values["MIP"]
			}
			if r.committed {
				p.solved++
				p.quality = append(p.quality, dr.Values["MIP"]/w.lbs[k])
			}
		}
	}
	p.counts["solved_frac"] = frac(p.solved, p.items)
	p.counts["quality_ratio"] = mean(p.quality)
	if lt != nil {
		lt.report(p, tr)
	}
	return p, nil
}

// drawValues flattens a draw outcome in a fixed series order.
func drawValues(dr experiments.DrawResult, series []string) []float64 {
	if !dr.OK {
		return []float64{0}
	}
	out := []float64{1}
	for _, s := range series {
		out = append(out, dr.Values[s])
	}
	return out
}

// mipLayers accumulates one traced pass's per-layer figures.
type mipLayers struct {
	draws, heurCalls, milpSolves, burstProven int
	gen, heur, build, solve, burst, redundant time.Duration
	mipNodes, burstNodes                      int64
	milpAlloc                                 float64
	rootIDs                                   []int
}

// replay recomputes draw k exactly as the campaign engine's mipCampaign
// does — gen → heuristics → DFS burst → MILP — with a span around every
// layer call. Its outcome must equal RunDraws'.
func (w *mipCampaign) replay(tr *tracer, lt *mipLayers, k int) (experiments.DrawResult, error) {
	r, item := w.draws[k], w.draws[k].String()
	sub := r.sub()
	root := tr.begin("experiments.draw", item, 0)
	defer tr.end(root)
	lt.rootIDs = append(lt.rootIDs, root)
	lt.draws++

	id := tr.begin("gen.instance", item, root)
	t := time.Now()
	in, err := drawInstance(r)
	lt.gen += time.Since(t)
	tr.end(id)
	if err != nil {
		return experiments.DrawResult{}, err
	}
	names := mipSeries(r.fig)
	periods := map[string]float64{}
	var warm *core.Mapping
	warmPeriod := math.Inf(1)
	var pr pricer
	for _, name := range names {
		h, err := heuristics.Get(name)
		if err != nil {
			return experiments.DrawResult{}, err
		}
		id := tr.begin("heuristics.solve", item+"/"+name, root)
		t := time.Now()
		mp, err := h.Fn(in, gen.DeriveRNG(sub, streamHeuristic), heuristics.Options{})
		lt.heur += time.Since(t)
		lt.heurCalls++
		tr.end(id)
		if err != nil {
			return experiments.DrawResult{}, err
		}
		id = tr.begin("core.price", item+"/"+name, root)
		v, err := pr.price(in, mp)
		tr.end(id)
		if err != nil {
			return experiments.DrawResult{}, err
		}
		periods[name] = v
		if v < warmPeriod {
			warm, warmPeriod = mp, v
		}
	}

	id = tr.begin("exact.burst", item, root)
	t = time.Now()
	eres, err := exact.Solve(in, exact.Options{Rule: core.Specialized, Incumbent: warm,
		MaxNodes: mipNodes, TimeLimit: watchdog / 5})
	lt.burst += time.Since(t)
	tr.end(id)
	burstProven := false
	if err == nil {
		lt.burstNodes += eres.Nodes
		burstProven = eres.Proven
		if eres.Period < warmPeriod {
			warm, warmPeriod = eres.Mapping, eres.Period
		}
	}
	if burstProven {
		lt.burstProven++
	}

	id = tr.begin("milp.solve", item, root)
	a0 := allocBytes()
	t = time.Now()
	mres, build, err := solveMILP(tr, in, warm, item, id)
	d := time.Since(t)
	lt.milpAlloc += allocBytes() - a0
	lt.build += build
	tr.end(id)
	if err != nil {
		return experiments.DrawResult{}, err
	}
	lt.solve += d
	lt.milpSolves++
	lt.mipNodes += int64(mres.Nodes)
	if burstProven {
		// The DFS burst had already proven this draw's optimum; the MILP
		// re-solve adds nothing but its own confirmation.
		lt.redundant += d
	}
	if !mres.Proven || mres.Mapping == nil {
		return experiments.DrawResult{}, nil
	}
	vals := map[string]float64{"MIP": mres.Period}
	for _, name := range names {
		vals[name] = periods[name]
	}
	return experiments.DrawResult{Values: vals, OK: true}, nil
}

// solveMILP is milp.Solve (Specialized rule, the campaign's node budget)
// taken apart into its public steps, with spans around the model build and
// the branch and bound: the build is timed once, as the campaign does it.
// It returns what milp.Solve returns, plus the build time.
func solveMILP(tr *tracer, in *core.Instance, warm *core.Mapping, item string, parent int) (*milp.Result, time.Duration, error) {
	id := tr.begin("milp.build", item, parent)
	t := time.Now()
	md, err := milp.Build(in, core.Specialized)
	build := time.Since(t)
	tr.end(id)
	if err != nil {
		return nil, build, err
	}
	mo := mip.Options{MaxNodes: mipNodes, TimeLimit: watchdog}
	if warm != nil {
		x, err := md.WarmStart(warm)
		if err != nil {
			return nil, build, fmt.Errorf("milp: warm start rejected: %w", err)
		}
		mo.Incumbent = x
	}
	id = tr.begin("mip.solve", item, parent)
	mr, err := mip.Solve(&mip.Problem{Model: md.LP, Integers: md.Integers}, mo)
	tr.end(id)
	if err != nil {
		return nil, build, err
	}
	res := &milp.Result{Proven: mr.Status == mip.Optimal, Bound: mr.Bound, Nodes: mr.Nodes, Elapsed: mr.Elapsed}
	switch mr.Status {
	case mip.Infeasible, mip.Unbounded:
		return nil, build, fmt.Errorf("milp: MIP ended %v", mr.Status)
	case mip.Budget:
		return res, build, nil // no incumbent
	}
	mp, err := md.Extract(mr.X)
	if err != nil {
		return nil, build, err
	}
	period, err := core.PeriodE(in, mp)
	if err != nil {
		return nil, build, fmt.Errorf("milp: extracted mapping does not evaluate: %w", err)
	}
	res.Mapping, res.Period = mp, period
	return res, build, nil
}

func (lt *mipLayers) report(p *passResult, tr *tracer) {
	l := p.layer
	l["gen.instance_ms"] = ms(lt.gen) / float64(lt.draws)
	l["heuristics.solve_ms"] = ms(lt.heur) / float64(lt.heurCalls)
	l["exact.nodes"] = float64(lt.burstNodes)
	l["exact.solve_s"] = lt.burst.Seconds()
	l["exact.ns_per_node"] = float64(lt.burst.Nanoseconds()) / float64(max(lt.burstNodes, 1))
	l["exact.burst_proven_frac"] = frac(lt.burstProven, lt.draws)
	l["milp.build_ms"] = ms(lt.build) / float64(lt.draws)
	l["milp.solve_s"] = lt.solve.Seconds()
	l["mip.nodes"] = float64(lt.mipNodes)
	l["milp.ms_per_node"] = ms(lt.solve) / float64(max(lt.mipNodes, 1))
	l["milp.redundant_frac"] = frac(lt.burstProven, lt.milpSolves)
	l["milp.redundant_s"] = lt.redundant.Seconds()
	l["milp.alloc_mb"] = lt.milpAlloc / 1e6
	l["experiments.engine_frac"] = engineFrac(tr, lt.rootIDs)
	p.counts["mip.nodes"] = float64(lt.mipNodes)
	p.counts["exact.nodes"] = float64(lt.burstNodes)
}

// engineFrac is the share of the draws' wall time not covered by any
// layer span: the campaign's own bookkeeping.
func engineFrac(tr *tracer, roots []int) float64 {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	self := selfTimes(spans)
	var own, total time.Duration
	for _, id := range roots {
		own += self[id]
		total += spans[id-1].dur()
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// verify proves every kept draw's optimum independently with the exact
// DFS (no node cap that could bind on these sizes): the MILP value the
// campaign reports must equal it.
func (w *mipCampaign) verify() []string {
	var errs []string
	for k, r := range w.draws {
		got := w.mip[k]
		if math.IsNaN(got) {
			continue
		}
		ex, err := exact.Solve(w.ins[k], exact.Options{Rule: core.Specialized, Workers: 1, MaxNodes: exactCap, TimeLimit: watchdog})
		if err != nil || !ex.Proven {
			errs = append(errs, fmt.Sprintf("%v: independent proof failed: %v", r, err))
			continue
		}
		if relDiff(got, ex.Period) > 1e-9 {
			errs = append(errs, fmt.Sprintf("%v: MIP value %v, DFS-proven optimum %v", r, got, ex.Period))
		}
	}
	return errs
}
