package main

import (
	"fmt"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/platform"
)

// Per-draw stream indices of the experiment engine: a draw's instance,
// heuristic and polish RNGs derive from its sub-seed with these indices.
// The traced replays re-derive them; if the engine ever changes them, the
// replay stops matching RunDraws and the traced run fails.
const (
	streamInstance  int64 = 0
	streamHeuristic int64 = 999
	streamPolish    int64 = 1999
)

// drawRef names one (figure, point, draw) item of a campaign run under a
// given campaign seed.
type drawRef struct {
	fig, x, d int
	seed      int64
	// committed marks the draws under the fixed campaign seed; only
	// their latencies enter the latency percentiles, so the seed-drawn
	// draws cannot move the median by themselves.
	committed bool
}

func (r drawRef) String() string {
	return fmt.Sprintf("fig%d/x=%d/d=%d/seed=%d", r.fig, r.x, r.d, r.seed)
}

// sub is the draw's private sub-seed, derived exactly as the engine does.
func (r drawRef) sub() int64 {
	return gen.SubSeed(r.seed, gen.StringSeed(fmt.Sprintf("fig%d", r.fig)), int64(r.x), int64(r.d))
}

// drawInstance regenerates the draw's instance with the figure's
// generator parameters.
func drawInstance(r drawRef) (*core.Instance, error) {
	var pr gen.Params
	switch r.fig {
	case 8:
		pr = gen.Default(r.x, 5, 10)
		pr.FMin, pr.FMax = 0, 0.1
	case 9:
		pr = gen.Default(100, r.x, 100)
		pr.TaskOnlyFailures = true
	case 10:
		pr = gen.Default(r.x, 2, 5)
	case 12:
		pr = gen.Default(r.x, 4, 9)
	default:
		return nil, fmt.Errorf("no generator for figure %d", r.fig)
	}
	return gen.Chain(pr, gen.DeriveRNG(r.sub(), streamInstance))
}

// pricer prices complete mappings the way the campaign engine's workers
// do: one core.Evaluator per instance, reset per mapping, tasks assigned
// in reverse topological order — so the periods are bit-identical.
type pricer struct {
	in    *core.Instance
	ev    *core.Evaluator
	order []app.TaskID
}

func (p *pricer) price(in *core.Instance, mp *core.Mapping) (float64, error) {
	if p.in != in {
		p.in, p.ev, p.order = in, core.NewEvaluator(in), in.App.ReverseTopological()
	} else {
		p.ev.Reset()
	}
	for _, i := range p.order {
		if err := p.ev.Assign(i, mp.Machine(i)); err != nil {
			return 0, err
		}
	}
	return p.ev.Period(), nil
}

func mID(u int) platform.MachineID { return platform.MachineID(u) }
