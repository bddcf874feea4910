// Package microfab reproduces the system of "Throughput optimization for
// micro-factories subject to task and machine failures" (Benoit, Dobrila,
// Nicod, Philippe — INRIA RR-7479, 2010): mapping typed tasks of an
// in-tree application onto machines so as to maximize the production
// throughput when every (task, machine) couple has its own transient
// failure rate.
//
// The package is a facade over the internal packages; it exposes the model
// (applications, platforms, failure matrices, mappings), the paper's six
// heuristics (H1, H2, H3, H4, H4w, H4f), the exact solvers (MIP branch and
// bound, DFS search, polynomial one-to-one algorithms), the local-search
// refinement layer (hill climbing and simulated annealing over the
// incremental evaluator — Solve("ls"), Solve("anneal"), Polish), the
// discrete-event simulator and the experiment drivers that regenerate
// every figure of the paper's evaluation.
//
// Quick start:
//
//	in, _ := microfab.GenerateChain(microfab.CampaignParams(20, 4, 10), 42)
//	mp, _ := microfab.Solve(in, "H4w", 0)
//	ev, _ := microfab.Evaluate(in, mp)
//	fmt.Printf("period %.0f ms, throughput %.4f products/s\n",
//		ev.Period, ev.Throughput*1000)
package microfab

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/experiments"
	"microfab/internal/failure"
	"microfab/internal/gen"
	"microfab/internal/heuristics"
	"microfab/internal/milp"
	"microfab/internal/oto"
	"microfab/internal/platform"
	"microfab/internal/search"
	"microfab/internal/sim"
)

// Model types, re-exported so callers never import internal packages.
type (
	// Application is the in-tree of typed tasks.
	Application = app.Application
	// Builder assembles applications incrementally.
	Builder = app.Builder
	// Task is one operation applied to a product.
	Task = app.Task
	// TaskID indexes tasks (0-based).
	TaskID = app.TaskID
	// TypeID indexes task types (0-based).
	TypeID = app.TypeID
	// MachineID indexes machines (0-based).
	MachineID = platform.MachineID
	// Platform is the machine set with execution times.
	Platform = platform.Platform
	// FailureMatrix holds f[i][u], the loss probability per couple.
	FailureMatrix = failure.Matrix
	// Instance bundles application, platform and failures.
	Instance = core.Instance
	// Mapping is the allocation of tasks to machines.
	Mapping = core.Mapping
	// SplitMapping allows one task's workload on several machines.
	SplitMapping = core.SplitMapping
	// Evaluation is the period/throughput breakdown of a mapping.
	Evaluation = core.Evaluation
	// Evaluator is the stateful incremental evaluation engine
	// (Assign/Unassign/Best, plus the native Swap/Relocate move kernels)
	// used by the search loops.
	Evaluator = core.Evaluator
	// Rule selects the mapping constraint.
	Rule = core.Rule
	// GenParams configures random instance generation.
	GenParams = gen.Params
	// SimOptions configures a discrete-event run.
	SimOptions = sim.Options
	// SimStats is the outcome of a simulation.
	SimStats = sim.Stats
	// ExpConfig scales an experiment campaign.
	ExpConfig = experiments.Config
	// ExpResult is one regenerated figure.
	ExpResult = experiments.Result
	// ExactOptions configures the DFS branch and bound (rule, budgets,
	// warm start, Workers for the parallel root split, ablation switches).
	ExactOptions = exact.Options
	// ExactResult is the branch and bound outcome: mapping, period, the
	// Proven flag and the explored node count.
	ExactResult = exact.Result
)

// Mapping rules (paper §4.2).
const (
	OneToOne    = core.OneToOne
	Specialized = core.Specialized
	General     = core.GeneralRule
)

// Typed solver errors. Request-facing callers (the mfserve daemon, any
// long-lived embedding) key status codes off these with errors.Is instead
// of string-matching; every facade solve path guarantees "mapping or
// error, never both nil".
var (
	// ErrUnknownSolver is wrapped by Solve when the method name is not
	// registered; the message lists what is.
	ErrUnknownSolver = errors.New("unknown solver")
	// ErrBadBudget rejects negative node/time/worker budgets before a
	// search starts (exact.ErrBadBudget re-exported).
	ErrBadBudget = exact.ErrBadBudget
	// ErrBudgetExhausted means a budget stopped an exact search (or the
	// MIP) before any feasible mapping was found — rare, since warm starts
	// and the greedy dive seed an incumbent (exact.ErrBudgetExhausted
	// re-exported).
	ErrBudgetExhausted = exact.ErrBudgetExhausted
	// ErrInfeasible means the search proved no rule-feasible mapping
	// exists (exact.ErrInfeasible re-exported).
	ErrInfeasible = exact.ErrInfeasible
)

// NewBuilder starts assembling an application.
func NewBuilder() *Builder { return app.NewBuilder() }

// NewChainApplication builds a linear chain with the given task types.
func NewChainApplication(types []TypeID) (*Application, error) { return app.NewChain(types) }

// NewPlatform wraps an execution-time matrix w[i][u] (ms).
func NewPlatform(w [][]float64) (*Platform, error) { return platform.New(w) }

// NewFailureMatrix wraps a loss-probability matrix f[i][u] in [0,1).
func NewFailureMatrix(f [][]float64) (*FailureMatrix, error) { return failure.New(f) }

// NewInstance validates and bundles the three model parts.
func NewInstance(a *Application, p *Platform, f *FailureMatrix) (*Instance, error) {
	return core.NewInstance(a, p, f)
}

// CampaignParams returns the paper's standard random-campaign parameters
// (w in [100,1000] ms, f in [0.5%,2%]) for n tasks of p types on m
// machines.
func CampaignParams(n, p, m int) GenParams { return gen.Default(n, p, m) }

// GenerateChain draws a random linear-chain instance.
func GenerateChain(pr GenParams, seed int64) (*Instance, error) {
	return gen.Chain(pr, gen.RNG(seed))
}

// GenerateInTree draws a random in-tree instance with the given number of
// branches merged by a final assembly task.
func GenerateInTree(pr GenParams, branches int, seed int64) (*Instance, error) {
	return gen.InTree(pr, branches, gen.RNG(seed))
}

// Heuristics lists the registered heuristic names (the paper's six plus
// the H2r ablation).
func Heuristics() []string { return heuristics.Names() }

// solverFunc is a registered facade solver.
type solverFunc func(in *Instance, seed int64) (*Mapping, error)

// solverRegistry holds the non-heuristic solvers by method name; Solve
// falls back to the heuristics registry for anything else. Keeping the
// two registries separate lets heuristics self-register (H2r does) while
// the facade owns the solver wiring.
var solverRegistry = map[string]solverFunc{
	"MIP":        solveMIP,
	"mip":        solveMIP,
	"exact":      solveExact,
	"oto":        solveOTO,
	"oto-greedy": func(in *Instance, _ int64) (*Mapping, error) { return oto.Greedy(in) },
	"ls":         solveLS,
	"anneal":     solveAnneal,
}

// Solvers lists every method Solve accepts: the registered solvers plus
// the heuristics, in a stable order.
func Solvers() []string {
	seen := map[string]bool{"mip": true} // fold the MIP alias
	var out []string
	for name := range solverRegistry {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	out = append(out, heuristics.Names()...)
	sort.Strings(out)
	return out
}

func solveMIP(in *Instance, _ int64) (*Mapping, error) {
	warm, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		warm = nil
	}
	res, err := milp.Solve(in, milp.Options{
		Rule:      core.Specialized,
		WarmStart: warm,
		TimeLimit: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	if res.Mapping == nil {
		return nil, fmt.Errorf("microfab: MIP: %w", ErrBudgetExhausted)
	}
	return res.Mapping, nil
}

func solveExact(in *Instance, _ int64) (*Mapping, error) {
	res, err := SolveExact(in, ExactOptions{
		Rule:      core.Specialized,
		TimeLimit: 30 * time.Second,
		Workers:   runtime.GOMAXPROCS(0),
		WarmStart: true,
	})
	if err != nil {
		return nil, err
	}
	if res.Mapping == nil {
		return nil, fmt.Errorf("microfab: exact: %w", ErrBudgetExhausted)
	}
	return res.Mapping, nil
}

// SolveExact runs the DFS branch and bound with full control over its
// options: rule, node/time budgets, warm-start incumbents (an explicit
// Incumbent and/or the H4w WarmStart), the parallel root split (Workers),
// and the pruning/ordering ablations. The search prices through the
// pricing-only core.Pricer and visits children best-first after a greedy
// restart dive, so even budget-starved runs return near-optimal
// incumbents; under the one-to-one rule every node is additionally bounded
// by a bottleneck assignment of the unplaced tasks to the free machines
// (ablatable via DisableAssignBound), which shrinks proofs without ever
// changing the proven result. Proven results are byte-identical for any
// worker count; see exact.Options for the budget caveats. Solve("exact")
// is the convenience form (Specialized rule, 30s budget, all CPUs, H4w
// warm start).
func SolveExact(in *Instance, opts ExactOptions) (*ExactResult, error) {
	return exact.Solve(in, opts)
}

func solveOTO(in *Instance, _ int64) (*Mapping, error) {
	if mp, err := oto.OptimalTaskOnly(in); err == nil {
		return mp, nil
	}
	return oto.OptimalChainHomogeneous(in)
}

// solveLS is the hill-climbing solver: an H4w seed refined by steepest
// descent over the relocate/swap/group neighborhood (internal/search),
// plus deterministic multi-start restarts from the other constructive
// heuristics so high-failure-regime descents escape deep local optima.
// Fully deterministic; the seed argument is unused (the restart streams
// derive from a fixed facade key, so "ls" stays seed-independent).
func solveLS(in *Instance, _ int64) (*Mapping, error) {
	base, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		return nil, err
	}
	opt := search.DefaultOptions()
	opt.Restarts = 4
	opt.RestartSeed = gen.StringSeed("microfab/ls-restarts")
	res, err := search.HillClimb(in, base, opt)
	if err != nil {
		return nil, err
	}
	return res.Mapping, nil
}

// solveAnneal is the simulated-annealing solver: an H4w seed refined by
// annealing driven by the given seed's RNG stream. Deterministic for a
// fixed seed; the result is never worse than the H4w start.
func solveAnneal(in *Instance, seed int64) (*Mapping, error) {
	base, err := heuristics.H4w(in, nil, heuristics.Options{})
	if err != nil {
		return nil, err
	}
	opt := search.DefaultOptions()
	opt.Iters = 200 * in.N()
	res, err := search.Anneal(in, base, gen.RNG(seed), opt)
	if err != nil {
		return nil, err
	}
	return res.Mapping, nil
}

// Solve runs the named method on the instance and returns its mapping.
//
// Methods: the heuristics "H1".."H4f" and "H2r" (specialized rule); "MIP"
// — the exact mixed-integer program, warm-started with H4w, 30 s budget;
// "exact" — the DFS branch and bound (lower-bound pruned, parallel over
// all CPUs, 30 s budget; use SolveExact for full control); "oto" — the optimal
// one-to-one mapping (requires task-only failures or a homogeneous
// platform chain); "oto-greedy" — the polynomial one-to-one fallback;
// "ls" — hill climbing from an H4w seed; "anneal" — simulated annealing
// from an H4w seed. The seed matters for "H1" and "anneal".
func Solve(in *Instance, method string, seed int64) (*Mapping, error) {
	if f, ok := solverRegistry[method]; ok {
		return f(in, seed)
	}
	h, err := heuristics.Get(method)
	if err != nil {
		return nil, fmt.Errorf("microfab: %w %q (have %v)", ErrUnknownSolver, method, Solvers())
	}
	return h.Fn(in, gen.RNG(seed), heuristics.Options{})
}

// Polish refines a complete rule-respecting mapping with a bounded
// local-search post-pass: strategy "ls" (first-improvement hill climbing,
// deterministic) or "anneal" (simulated annealing seeded by seed). budget
// bounds the work (moves priced for "ls", proposals for "anneal"; 0 =
// default). The result is never worse than the input. rule must be the
// rule the mapping satisfies (the paper's solvers produce Specialized
// mappings; "oto" mappings satisfy OneToOne and Specialized both).
func Polish(in *Instance, m *Mapping, strategy string, rule Rule, seed int64, budget int) (*Mapping, error) {
	res, err := search.Polish(in, m, strategy, rule, gen.RNG(seed), budget)
	if err != nil {
		return nil, err
	}
	return res.Mapping, nil
}

// SolveSplit runs the divisible-task extension (H4w refined by workload
// splitting) and returns the fractional mapping.
func SolveSplit(in *Instance) (*SplitMapping, error) {
	return heuristics.H4wSplit(in, nil, heuristics.Options{})
}

// Evaluate computes the period, throughput, per-machine loads and product
// counts of a complete mapping.
func Evaluate(in *Instance, m *Mapping) (*Evaluation, error) { return core.Evaluate(in, m) }

// NewEvaluator returns an incremental evaluation engine over the instance
// with every task unassigned. Assign/Unassign maintain product counts and
// machine periods in O(changed subtree) per step, only marking the maximum
// stale; Best reads the current (period, critical machine) by flushing
// each stale machine into a tournament tree in O(log m) — O(1) when
// nothing changed. Search loops use it to price candidates without
// re-evaluating from scratch.
func NewEvaluator(in *Instance) *Evaluator { return core.NewEvaluator(in) }

// EvaluateSplit evaluates a fractional mapping.
func EvaluateSplit(in *Instance, s *SplitMapping) (*Evaluation, error) {
	return core.EvaluateSplit(in, s)
}

// PlanInputs returns the expected raw products each source must receive so
// that xout finished products leave the system.
func PlanInputs(in *Instance, m *Mapping, xout float64) (*core.InputPlan, error) {
	return core.PlanInputs(in, m, xout)
}

// Simulate runs the discrete-event micro-factory on a mapped instance.
func Simulate(in *Instance, m *Mapping, opt SimOptions) (*SimStats, error) {
	return sim.Run(in, m, opt)
}

// PlanBatches sizes raw-product batches for a target output with a safety
// margin (e.g. 1.1).
func PlanBatches(in *Instance, m *Mapping, xout, margin float64) ([]int64, error) {
	return sim.PlanBatches(in, m, xout, margin)
}

// MeasureThroughput estimates the steady-state empirical throughput
// (products per ms) of a mapped instance by simulation.
func MeasureThroughput(in *Instance, m *Mapping, outputs int64, warmupFrac float64, seed int64) (float64, error) {
	return sim.MeasureThroughput(in, m, outputs, warmupFrac, seed)
}

// Figure regenerates one of the paper's evaluation figures (5..12). The
// campaign fans its (point, draw) work items out over cfg.Workers
// goroutines; the result is byte-identical for any worker count unless a
// wall-clock solver budget binds on the MIP figures (see
// internal/experiments for the caveat).
func Figure(num int, cfg ExpConfig) (*ExpResult, error) { return experiments.Figure(num, cfg) }

// RenderFigure formats a regenerated figure as an aligned text table.
func RenderFigure(r *ExpResult) string { return experiments.Render(r) }
