package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/instance"
	"microfab/internal/serve"
)

const (
	// serveRate is the fixed open-loop arrival rate (requests per second).
	// On a 2-core host it keeps the process at about a fifth of one core:
	// at 1000 and 2000 req/s (Poisson arrivals) the p99 of this mix moved
	// 50-90% between runs, because a burst of misses then holds both
	// cores and the hits queue behind the solves.
	serveRate = 500
	// serveWindow is the length of one pass's arrival schedule.
	serveWindow = 4 * time.Second
	// sloLimit is the stated latency limit, counted from the due time.
	sloLimit = 250 * time.Millisecond
	// hitSet is the number of instances solved into the cache at set-up.
	hitSet = 64
	// hitNodes / missNodes are the exact budgets of cached and of
	// cache-missing exact requests.
	hitNodes  = 4000
	missNodes = 1000
)

// class is a request kind of the traffic mix.
type class struct {
	name   string
	share  float64
	hit    bool   // must come back cached
	solver string // "" = exact
}

// serveMix is the stated traffic mix: 60% hits (including isomorphic
// relabellings that only the canonical hash can match), 40% misses
// (heuristic, "ls" and node-budgeted exact solves with fresh seeds, and
// 1e-12 near-misses of cached instances that must not hit).
var serveMix = []class{
	{"hit-exact", 0.35, true, ""},
	{"hit-iso", 0.15, true, ""},
	{"hit-heur", 0.10, true, "H4w"},
	{"miss-heur", 0.17, false, "H2"},
	{"miss-ls", 0.08, false, "ls"},
	{"miss-exact", 0.10, false, ""},
	{"near-miss", 0.05, false, ""},
}

// scheduled is one request of a pass: its class, due time and body.
type scheduled struct {
	class int
	due   time.Duration
	body  []byte
	in    *core.Instance // the request's own instance, for checking
	lb    float64
}

// serveMixed drives an in-process serve.Server through its HTTP handler
// (no socket) with an open-loop arrival schedule.
type serveMixed struct {
	seed     int64
	srv      *serve.Server
	handler  http.Handler
	hits     []*instance.File // the cached hit set
	isos     []*instance.File // an isomorphic relabelling of each
	hitIns   []*core.Instance
	isoIns   []*core.Instance
	pass0    int // passes run so far; misses of pass k use fresh seeds
	nearMiss int // near-misses drawn so far
}

func (w *serveMixed) setup(seed int64) error {
	if w.srv != nil {
		w.srv.Close()
	}
	w.seed = seed
	w.srv = serve.NewServer(serve.Config{
		Workers: 2, QueueDepth: 4096, CacheSize: 1 << 16,
		MaxNodes: hitNodes, MaxTime: watchdog,
	})
	w.handler = w.srv.Handler()
	// The cached instance set is fixed (generator seed 1), like the other
	// workloads' committed corpus; the run's seed draws the traffic over
	// it. Drawing the instances too would let the seed move the miss
	// costs, and with them the tail, by itself.
	rng := gen.DeriveRNG(1, gen.StringSeed("serve-mixed"))
	w.hits, w.isos, w.hitIns, w.isoIns = nil, nil, nil, nil
	for k := 0; k < hitSet; k++ {
		in, err := gen.Chain(gen.Default(10, 3, 6), rng)
		if err != nil {
			return err
		}
		f := instance.FromInstance(in, "")
		iso := relabel(f, rng)
		isoIn, err := iso.ToInstance()
		if err != nil {
			return err
		}
		w.hits = append(w.hits, f)
		w.isos = append(w.isos, iso)
		w.hitIns = append(w.hitIns, in)
		w.isoIns = append(w.isoIns, isoIn)
		// Warm the cache: the exact and the heuristic answer of each.
		for _, req := range []serve.SolveRequest{
			{Instance: *f, Solver: "exact", MaxNodes: hitNodes},
			{Instance: *f, Solver: "H4w"},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			w.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("cache warm: status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	w.pass0, w.nearMiss = 0, 0
	return nil
}

// relabel returns an isomorphic copy of f: tasks, types and machines
// permuted at random.
func relabel(f *instance.File, rng *rand.Rand) *instance.File {
	n, m := len(f.Tasks), len(f.Times[0])
	tp := rng.Perm(n)
	mp := rng.Perm(m)
	types := 0
	for _, t := range f.Tasks {
		types = max(types, t.Type+1)
	}
	yp := rng.Perm(types)
	out := &instance.File{Tasks: make([]instance.TaskJSON, n), Times: make([][]float64, n), Failures: make([][]float64, n)}
	for i, t := range f.Tasks {
		j := tp[i]
		out.Tasks[j] = instance.TaskJSON{ID: j, Type: yp[t.Type]}
		out.Times[j] = make([]float64, m)
		out.Failures[j] = make([]float64, m)
		for u := 0; u < m; u++ {
			out.Times[j][mp[u]] = f.Times[i][u]
			out.Failures[j][mp[u]] = f.Failures[i][u]
		}
	}
	for _, d := range f.Deps {
		out.Deps = append(out.Deps, instance.DepJSON{From: tp[d.From], To: tp[d.To]})
	}
	return out
}

// schedule draws one pass's requests: arrivals evenly spaced at serveRate
// over serveWindow, each with a class and an instance drawn from the run's
// seed, so every pass of a run replays the same schedule. Even spacing
// keeps the open loop's tail a property of the server and the host rather
// than of how bursty one seed's Poisson draw happened to be (Poisson
// arrivals moved the p99 by half between seeds). Misses carry seeds
// unique to the (pass, request) so they can never hit an earlier answer.
func (w *serveMixed) schedule(pass int) ([]scheduled, error) {
	rng := gen.DeriveRNG(w.seed, gen.StringSeed("serve-schedule"))
	var out []scheduled
	var t time.Duration
	for k := 0; ; k++ {
		t += time.Second / serveRate
		if t >= serveWindow {
			break
		}
		u, c := rng.Float64(), 0
		for acc := serveMix[0].share; u >= acc && c < len(serveMix)-1; acc += serveMix[c].share {
			c++
		}
		i := rng.Intn(hitSet)
		cl := serveMix[c]
		req := serve.SolveRequest{Instance: *w.hits[i], Solver: cl.solver}
		in := w.hitIns[i]
		if cl.solver == "" {
			req.Solver, req.MaxNodes = "exact", hitNodes
		}
		if !cl.hit && cl.name != "near-miss" {
			// Only the perturbation may separate a near-miss from its
			// cached original: same solver, budget and seed.
			req.Seed = int64(pass)*1_000_000 + int64(k) + 1
		}
		switch cl.name {
		case "hit-iso":
			req.Instance, in = *w.isos[i], w.isoIns[i]
		case "miss-exact":
			req.MaxNodes = missNodes
		case "near-miss":
			f := *w.hits[i]
			f.Times = cloneRows(f.Times)
			r, u := rng.Intn(len(f.Times)), rng.Intn(len(f.Times[0]))
			// The j-th near-miss of the run scales one machine's time for
			// one task type by 1+j·1e-12 (tasks of a type share their
			// times), so no two near-misses share an instance either.
			w.nearMiss++
			ty := f.Tasks[r].Type
			for t := range f.Tasks {
				if f.Tasks[t].Type == ty {
					f.Times[t][u] *= 1 + 1e-12*float64(w.nearMiss)
				}
			}
			req.Instance = f
			var err error
			if in, err = f.ToInstance(); err != nil {
				return nil, err
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out = append(out, scheduled{class: c, due: t, body: body, in: in, lb: core.LowerBoundPeriod(in)})
	}
	return out, nil
}

func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// answer is one completed request.
type answer struct {
	request
	code int
	body []byte
}

func (w *serveMixed) pass(tr *tracer) (*passResult, error) {
	sched, err := w.schedule(w.pass0)
	if err != nil {
		return nil, err
	}
	w.pass0++
	answers := make([]answer, len(sched))

	before := sample()
	origin := time.Now()
	var wg sync.WaitGroup
	for k := range sched {
		if d := sched[k].due - time.Since(origin); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(origin)
		wg.Add(1)
		go func(k int, sent time.Duration) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			w.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(sched[k].body)))
			answers[k] = answer{request: request{due: sched[k].due, sent: sent, done: time.Since(origin)},
				code: rec.Code, body: rec.Body.Bytes()}
		}(k, sent)
	}
	wg.Wait()
	after := sample()

	p := &passResult{counts: map[string]float64{}, layer: map[string]float64{}, measured: true}
	reqs := make([]request, len(answers))
	for k, a := range answers {
		reqs[k] = a.request
	}
	ol := summarizeOpenLoop(reqs)
	p.wall = ol.span
	p.charge(before, after)
	p.latMs = ol.latMs

	var hitSvc, missLat []float64
	hits, rejected := 0, 0
	var nodes int64
	for k, a := range answers {
		s := sched[k]
		cl := serveMix[s.class]
		p.attempted++
		p.items++
		if tr != nil {
			name := "serve.miss"
			if cl.hit {
				name = "serve.hit"
			}
			tr.record(name, fmt.Sprintf("req%d/%s", k, cl.name), 0, origin.Add(a.sent), origin.Add(a.done))
		}
		if cl.hit {
			hitSvc = append(hitSvc, float64(a.done-a.sent)/float64(time.Microsecond))
		} else {
			missLat = append(missLat, ms(a.latency()))
		}
		if a.code == http.StatusTooManyRequests {
			rejected++
		}
		resp, err := checkAnswer(a, s, cl)
		if err != nil {
			p.failed++
			p.fail("request %d (%s): %v", k, cl.name, err)
			continue
		}
		if resp.Cached {
			hits++
		} else {
			nodes += resp.Nodes // exact misses only; 0 for the rest
		}
		p.solved++
		if cl.name != "near-miss" {
			// A near-miss instance differs per pass, and so may its
			// period's last bits; every other answer must repeat.
			p.quality = append(p.quality, resp.Period/s.lb)
			p.values = append(p.values, resp.Period, float64(resp.Nodes))
		}
		if a.latency() <= sloLimit {
			p.sloOK++
		}
	}
	p.counts["serve.hit_frac"] = frac(hits, len(answers))
	p.counts["solved_frac"] = frac(p.solved, p.items)
	p.counts["quality_ratio"] = mean(p.quality)
	p.layer["serve.hit_frac"] = frac(hits, len(answers))
	p.layer["exact.nodes"] = float64(nodes)
	p.layer["serve.rejected"] = float64(rejected)
	p.layer["serve.hit_us_p50"] = median(hitSvc)
	p.layer["serve.hit_us_p99"], _ = tail(hitSvc, 0.99)
	p.layer["serve.miss_ms_p50"] = median(missLat)
	p.layer["serve.miss_ms_p99"], _ = tail(missLat, 0.99)
	p.layer["serve.gen_lag_ms_p99"], _ = tail(ol.lagMs, 0.99)
	return p, nil
}

// checkAnswer validates one response: status 200, the cached flag the
// schedule demands, and a period equal to core.Period of the served
// assignment on the requester's own instance.
func checkAnswer(a answer, s scheduled, cl class) (*serve.SolveResponse, error) {
	if a.code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", a.code, bytes.TrimSpace(a.body))
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(a.body, &resp); err != nil {
		return nil, err
	}
	if resp.Cached != cl.hit {
		return nil, fmt.Errorf("cached=%v, scheduled as a %s", resp.Cached, map[bool]string{true: "hit", false: "miss"}[cl.hit])
	}
	if len(resp.Assign) != s.in.N() {
		return nil, fmt.Errorf("assign covers %d tasks, instance has %d", len(resp.Assign), s.in.N())
	}
	mp := core.NewMapping(s.in.N())
	for i, u := range resp.Assign {
		mp.Assign(app.TaskID(i), mID(u))
	}
	got, err := core.PeriodE(s.in, mp)
	if err != nil {
		return nil, err
	}
	if relDiff(got, resp.Period) > 1e-9 {
		return nil, fmt.Errorf("served period %v, core.Period of the served assign %v", resp.Period, got)
	}
	return &resp, nil
}

func (w *serveMixed) verify() []string { return nil }

// close stops the server's solve workers.
func (w *serveMixed) close() {
	if w.srv != nil {
		w.srv.Close()
	}
}

// extras times the request decode and the canonical hash on the hit set.
func (w *serveMixed) extras(*tracer) (map[string]float64, []string) {
	const reps = 200
	var bodies [][]byte
	for _, f := range w.hits {
		body, err := json.Marshal(serve.SolveRequest{Instance: *f, Solver: "exact", MaxNodes: hitNodes})
		if err != nil {
			return nil, []string{err.Error()}
		}
		bodies = append(bodies, body)
	}
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, b := range bodies {
			var req serve.SolveRequest
			if err := json.Unmarshal(b, &req); err != nil {
				return nil, []string{err.Error()}
			}
			if _, err := req.Instance.ToInstance(); err != nil {
				return nil, []string{err.Error()}
			}
		}
	}
	decode := time.Since(t)
	t = time.Now()
	for r := 0; r < reps; r++ {
		for _, in := range w.hitIns {
			serve.CanonicalHash(in)
		}
	}
	hash := time.Since(t)
	calls := float64(reps * len(bodies))
	return map[string]float64{
		"serve.decode_us": float64(decode.Microseconds()) / calls,
		"serve.hash_us":   float64(hash.Microseconds()) / calls,
	}, nil
}
