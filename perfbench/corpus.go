package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/exact"
	"microfab/internal/failure"
	"microfab/internal/gen"
	"microfab/internal/instance"
	"microfab/internal/oto"
	"microfab/internal/platform"
)

//go:embed corpus
var corpusFS embed.FS

// corpusCase is one committed exact-proof instance and its proven optimum.
type corpusCase struct {
	Name   string  `json:"name"`
	File   string  `json:"file"`
	Rule   string  `json:"rule"`
	Period float64 `json:"period"`
}

func parseRule(s string) (core.Rule, error) {
	switch s {
	case "specialized":
		return core.Specialized, nil
	case "one-to-one":
		return core.OneToOne, nil
	}
	return 0, fmt.Errorf("unknown rule %q", s)
}

// corpusSpec lists how every committed instance is generated. The n=18
// proven-regime chain is not an mfgen draw: its machine columns replicate
// three base machines, the symmetric platform the dominance rule targets.
var corpusSpec = []struct {
	name, rule string
	build      func() (*core.Instance, string, error)
}{
	{"n18-sym", "specialized", func() (*core.Instance, string, error) {
		in, err := symmetricChain(18, 2, 9, 3, 0, 0.1, 1804)
		return in, "symmetric chain: gen.Chain(gen.Default(18, 2, 3), FMin 0, FMax 0.1, gen.RNG(1804)) with machine column u copied from base column u%3 over m=9", err
	}},
	{"n16-m9-s1", "specialized", mfgen(16, 4, 9, 0.1, 1, 0, false)},
	{"n16-m9-s6", "specialized", mfgen(16, 4, 9, 0.1, 6, 0, false)},
	{"n16-m16-tree-s7", "specialized", mfgen(16, 4, 16, 0.1, 7, 4, false)},
	{"oto-n18-m20-s3", "one-to-one", mfgen(18, 18, 20, 0.1, 3, 0, true)},
}

// mfgen reproduces cmd/mfgen's draw for the given flags (wmin/wmax and
// fmin at their defaults).
func mfgen(n, p, m int, fmax float64, seed int64, branches int, taskOnly bool) func() (*core.Instance, string, error) {
	return func() (*core.Instance, string, error) {
		pr := gen.Default(n, p, m)
		pr.FMax = fmax
		pr.TaskOnlyFailures = taskOnly
		comment := fmt.Sprintf("mfgen -n %d -p %d -m %d -seed %d -wmin %g -wmax %g -fmin %g -fmax %g",
			n, p, m, seed, pr.WMin, pr.WMax, pr.FMin, pr.FMax)
		if taskOnly {
			comment += " -task-only"
		}
		var in *core.Instance
		var err error
		if branches >= 2 {
			comment += fmt.Sprintf(" -branches %d", branches)
			in, err = gen.InTree(pr, branches, gen.RNG(seed))
		} else {
			in, err = gen.Chain(pr, gen.RNG(seed))
		}
		return in, comment, err
	}
}

// symmetricChain draws a chain on `distinct` base machines and replicates
// their columns over m machines (column u copies base column u % distinct).
func symmetricChain(n, p, m, distinct int, fmin, fmax float64, seed int64) (*core.Instance, error) {
	pr := gen.Default(n, p, max(distinct, p))
	pr.FMin, pr.FMax = fmin, fmax
	base, err := gen.Chain(pr, gen.RNG(seed))
	if err != nil {
		return nil, err
	}
	w := make([][]float64, n)
	f := make([][]float64, n)
	for i := range w {
		id := app.TaskID(i)
		w[i] = make([]float64, m)
		f[i] = make([]float64, m)
		for u := 0; u < m; u++ {
			src := platform.MachineID(u % distinct)
			w[i][u] = base.Platform.Time(id, src)
			f[i][u] = base.Failures.Rate(id, src)
		}
	}
	pl, err := platform.New(w)
	if err != nil {
		return nil, err
	}
	fm, err := failure.New(f)
	if err != nil {
		return nil, err
	}
	return core.NewInstance(base.App, pl, fm)
}

// loadedCase is a corpus case ready to solve.
type loadedCase struct {
	corpusCase
	in   *core.Instance
	rule core.Rule
	lb   float64
}

// loadCorpus parses the committed manifest and instances, and checks that
// the n=18 chain rebuilt from its generator matches its committed file.
func loadCorpus() ([]loadedCase, error) {
	raw, err := corpusFS.ReadFile("corpus/manifest.json")
	if err != nil {
		return nil, err
	}
	var cases []corpusCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		return nil, fmt.Errorf("corpus manifest: %w", err)
	}
	var out []loadedCase
	for _, c := range cases {
		raw, err := corpusFS.ReadFile("corpus/" + c.File)
		if err != nil {
			return nil, err
		}
		f, err := instance.Read(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", c.File, err)
		}
		in, err := f.ToInstance()
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", c.File, err)
		}
		rule, err := parseRule(c.Rule)
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", c.File, err)
		}
		out = append(out, loadedCase{corpusCase: c, in: in, rule: rule})
	}
	rebuilt, _, err := corpusSpec[0].build()
	if err != nil {
		return nil, err
	}
	if out[0].Name != corpusSpec[0].name || !sameInstance(rebuilt, out[0].in) {
		return nil, fmt.Errorf("corpus: rebuilt %s differs from its committed file", corpusSpec[0].name)
	}
	return out, nil
}

func sameInstance(a, b *core.Instance) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		id := app.TaskID(i)
		if a.App.Type(id) != b.App.Type(id) || a.App.Successor(id) != b.App.Successor(id) {
			return false
		}
		for u := 0; u < a.M(); u++ {
			mu := platform.MachineID(u)
			if a.Platform.Time(id, mu) != b.Platform.Time(id, mu) || a.Failures.Rate(id, mu) != b.Failures.Rate(id, mu) {
				return false
			}
		}
	}
	return true
}

// writeCorpus regenerates the committed corpus into dir: every instance
// file, the manifest of proven optima (each proof at Workers=1, the
// one-to-one case cross-checked against the bottleneck-assignment
// optimum), and the heuristic-campaign golden series.
func writeCorpus(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var manifest []corpusCase
	for _, s := range corpusSpec {
		in, comment, err := s.build()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		rule, err := parseRule(s.rule)
		if err != nil {
			return err
		}
		res, err := exact.Solve(in, exact.Options{Rule: rule, Workers: 1, MaxNodes: exactCap, TimeLimit: watchdog})
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if !res.Proven {
			return fmt.Errorf("%s: not proven within %d nodes", s.name, exactCap)
		}
		if rule == core.OneToOne {
			mp, err := oto.OptimalTaskOnly(in)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			if p := core.Period(in, mp); relDiff(p, res.Period) > 1e-9 {
				return fmt.Errorf("%s: exact one-to-one optimum %v != bottleneck assignment %v", s.name, res.Period, p)
			}
		}
		file := s.name + ".json"
		if err := instance.Save(filepath.Join(dir, file), in, comment); err != nil {
			return err
		}
		manifest = append(manifest, corpusCase{Name: s.name, File: file, Rule: s.rule, Period: res.Period})
		fmt.Fprintf(os.Stderr, "%s: period %v, %d nodes\n", s.name, res.Period, res.Nodes)
	}
	if err := writeJSON(filepath.Join(dir, "manifest.json"), manifest); err != nil {
		return err
	}
	golden, err := heuristicGolden()
	if err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "golden-heuristic.json"), golden)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
