package main

import (
	"fmt"
	"os"
	"time"

	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/gen"
)

const (
	// exactCap is the node budget of every corpus proof; the largest
	// case needs about 1.4M nodes, so the cap binds only on a regression
	// that would fail the run anyway.
	exactCap = 20_000_000
	// ladderCap bounds each ablation-ladder rung; a rung that cannot
	// prove within it reports the cap and is marked unproven.
	ladderCap = 2_000_000
	// watchdog is the wall-clock limit handed to every budgeted solve. It
	// never binds; node budgets alone decide every result.
	watchdog = time.Hour
	// seedChains is the number of seed-drawn chains added to the
	// committed corpus (mfgen -n 12 -p 4 -m 9 -fmax 0.1 family).
	seedChains = 4
)

// exactProof times proofs at Workers=1 of the committed corpus (the
// ROADMAP table instances and a one-to-one case) plus a few seed-drawn
// chains from the same generator family.
type exactProof struct {
	cases    []loadedCase
	tablesMs []float64 // per set-up: first-touch pricing tables
	// proven holds each case's proven period from the last untraced pass.
	proven []float64
}

func (w *exactProof) setup(seed int64) error {
	cases, err := loadCorpus()
	if err != nil {
		return err
	}
	for k := 0; k < seedChains; k++ {
		s := gen.SubSeed(seed, int64(k))
		in, _, err := mfgen(12, 4, 9, 0.1, s, 0, false)()
		if err != nil {
			return err
		}
		cases = append(cases, loadedCase{corpusCase: corpusCase{Name: fmt.Sprintf("seed-n12-m9-%d", k), Rule: "specialized"},
			in: in, rule: core.Specialized})
	}
	t := time.Now()
	for i := range cases {
		core.InflationTable(cases[i].in)
		core.TimeTable(cases[i].in)
	}
	w.tablesMs = append(w.tablesMs, ms(time.Since(t)))
	for i := range cases {
		cases[i].lb = core.LowerBoundPeriod(cases[i].in)
	}
	w.cases = cases
	return nil
}

func (w *exactProof) pass(tr *tracer) (*passResult, error) {
	p := &passResult{counts: map[string]float64{}, layer: map[string]float64{}}
	var nodes int64
	var solve time.Duration
	if tr == nil {
		w.proven = make([]float64, len(w.cases))
	}
	for k, c := range w.cases {
		id := tr.begin("exact.solve", c.Name, 0)
		c0, t := cpuTime(), time.Now()
		res, err := exact.Solve(c.in, exact.Options{Rule: c.rule, Workers: 1, MaxNodes: exactCap, TimeLimit: watchdog})
		el, cpu := time.Since(t), cpuTime()-c0
		tr.end(id)
		p.op(c.Period != 0, el, cpu)
		p.attempted++
		p.items++
		if err != nil {
			p.failed++
			p.fail("%s: %v", c.Name, err)
			continue
		}
		solve += el
		nodes += res.Nodes
		p.values = append(p.values, res.Period, float64(res.Nodes))
		if tr == nil {
			w.proven[k] = res.Period
		}
		ok := checkProof(p, c, res)
		if res.Proven {
			p.solved++
		}
		if ok {
			p.sloOK++
		} else {
			p.failed++
		}
		if c.Period != 0 {
			p.quality = append(p.quality, res.Period/c.lb)
		}
	}
	p.counts["exact.nodes"] = float64(nodes)
	p.counts["solved_frac"] = frac(p.solved, p.items)
	p.counts["quality_ratio"] = mean(p.quality)
	if tr != nil {
		p.layer["exact.nodes"] = float64(nodes)
		p.layer["exact.solve_s"] = solve.Seconds()
		p.layer["exact.ns_per_node"] = float64(solve.Nanoseconds()) / float64(nodes)
	}
	return p, nil
}

// checkProof validates a proven result: the mapping obeys the rule, its
// period re-prices to the reported one, and committed cases match their
// committed optimum.
func checkProof(p *passResult, c loadedCase, res *exact.Result) bool {
	if !res.Proven {
		p.fail("%s: not proven within %d nodes", c.Name, exactCap)
		return false
	}
	if err := res.Mapping.CheckRule(c.in.App, c.rule); err != nil {
		p.fail("%s: proven mapping breaks the rule: %v", c.Name, err)
		return false
	}
	if got := core.Period(c.in, res.Mapping); got != res.Period {
		p.fail("%s: reported period %v, mapping prices to %v", c.Name, res.Period, got)
		return false
	}
	if c.Period != 0 && relDiff(res.Period, c.Period) > 1e-9 {
		p.fail("%s: proven period %v, committed %v", c.Name, res.Period, c.Period)
		return false
	}
	return true
}

// verify re-proves the seed-drawn chains, which have no committed optimum,
// with the best-first order off: a different search must reach the same
// optimum.
func (w *exactProof) verify() []string {
	var errs []string
	for i, c := range w.cases {
		if c.Period != 0 {
			continue
		}
		res, err := exact.Solve(c.in, exact.Options{Rule: c.rule, Workers: 1, MaxNodes: exactCap, TimeLimit: watchdog, DisableOrder: true})
		if err != nil || !res.Proven {
			errs = append(errs, fmt.Sprintf("%s: cross-check proof failed: %v", c.Name, err))
			continue
		}
		if got := w.proven[i]; relDiff(got, res.Period) > 1e-9 {
			errs = append(errs, fmt.Sprintf("%s: proven period %v, unordered search proves %v", c.Name, got, res.Period))
		}
	}
	return errs
}

// rung is one step of the ablation ladder: each adds one mechanism to the
// bare depth-first search.
type rung struct {
	name string
	opts exact.Options
}

func ladderRungs() []rung {
	bare := exact.Options{DisableOrder: true, DisableDominance: true, DisableBound: true,
		DisableIncrementalBound: true, DisableAssignBound: true, DisableLPBound: true}
	order := bare
	order.DisableOrder = false
	dom := order
	dom.DisableDominance = false
	bound := dom
	bound.DisableBound = false
	inc := bound
	inc.DisableIncrementalBound = false
	tiers := inc
	tiers.DisableAssignBound, tiers.DisableLPBound = false, false
	return []rung{{"bare", bare}, {"order", order}, {"dominance", dom}, {"bound", bound}, {"incbound", inc}, {"tiers", tiers}}
}

// extras computes the traced run's kernel timing, set-up table cost and
// the ablation ladder over the committed cases.
func (w *exactProof) extras(tr *tracer) (map[string]float64, []string) {
	out := map[string]float64{"core.tables_ms": median(w.tablesMs)}
	var calls int
	var el time.Duration
	for _, c := range w.cases {
		n, d := timePriceAll(c.in)
		calls += n
		el += d
	}
	out["core.priceall_ns"] = float64(el.Nanoseconds()) / float64(calls)

	var errs []string
	fmt.Fprintf(os.Stderr, "%-18s", "ladder (nodes/ms)")
	for _, r := range ladderRungs() {
		fmt.Fprintf(os.Stderr, " %22s", r.name)
	}
	fmt.Fprintln(os.Stderr)
	nodes := map[string]int64{}
	spent := map[string]time.Duration{}
	for _, c := range w.cases {
		if c.Period == 0 {
			continue // the ladder runs on the committed cases only
		}
		fmt.Fprintf(os.Stderr, "%-18s", c.Name)
		for _, r := range ladderRungs() {
			o := r.opts
			o.Rule, o.Workers, o.MaxNodes, o.TimeLimit = c.rule, 1, ladderCap, watchdog
			id := tr.begin("exact.ladder."+r.name, c.Name, 0)
			t := time.Now()
			res, err := exact.Solve(c.in, o)
			d := time.Since(t)
			tr.end(id)
			mark := ""
			switch {
			case err != nil:
				errs = append(errs, fmt.Sprintf("ladder %s/%s: %v", c.Name, r.name, err))
				continue
			case !res.Proven:
				mark = "*" // unproven within ladderCap
			case relDiff(res.Period, c.Period) > 1e-9:
				errs = append(errs, fmt.Sprintf("ladder %s/%s: proven period %v, committed %v", c.Name, r.name, res.Period, c.Period))
			}
			n := res.Nodes
			if !res.Proven {
				n = ladderCap
			}
			nodes[r.name] += n
			spent[r.name] += d
			fmt.Fprintf(os.Stderr, " %22s", fmt.Sprintf("%d/%.0f%s", n, ms(d), mark))
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "(* = unproven within the %d-node rung cap; the cap is reported)\n", ladderCap)
	for _, r := range ladderRungs() {
		out["exact.ladder."+r.name+".nodes"] = float64(nodes[r.name])
		out["exact.ladder."+r.name+".ms"] = ms(spent[r.name])
	}
	return out, errs
}

// timePriceAll times core.Pricer.PriceAll at every depth of a greedy
// root-first descent (the exact solver's access pattern): at each depth
// the next task's landings are priced reps times, then the cheapest
// landing is taken.
func timePriceAll(in *core.Instance) (int, time.Duration) {
	const reps = 2000
	p := core.NewPricer(in)
	out := make([]float64, in.M())
	var el time.Duration
	calls := 0
	for _, i := range in.App.ReverseTopological() {
		t := time.Now()
		for r := 0; r < reps; r++ {
			p.PriceAll(i, out)
		}
		el += time.Since(t)
		calls += reps
		best := 0
		for u := range out {
			if out[u] < out[best] {
				best = u
			}
		}
		// General rule: any landing is admissible in the pricing kernel.
		if err := p.Assign(i, mID(best)); err != nil {
			break
		}
	}
	return calls, el
}
