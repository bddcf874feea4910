package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"microfab/internal/core"
	"microfab/internal/gen"
	"microfab/internal/instance"
)

// TestOutWritesSolveReport runs the command's solve path with -out and
// reads the file back: every solver writes the evaluated period, an exact
// solve adds its proof flag and node count, and the file stays a mapping
// ReadMapping (and so cmd/mfsim) accepts.
func TestOutWritesSolveReport(t *testing.T) {
	dir := t.TempDir()
	in, err := gen.Chain(gen.Default(8, 2, 4), gen.RNG(5))
	if err != nil {
		t.Fatal(err)
	}
	inPath := filepath.Join(dir, "inst.json")
	if err := instance.Save(inPath, in, "test"); err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"exact", "H4w"} {
		outPath := filepath.Join(dir, solver+".json")
		if err := run(inPath, solver, "specialized", 1, outPath, 0, "", 0, 1, true); err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		raw, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		var mj instance.MappingJSON
		if err := json.Unmarshal(raw, &mj); err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		f, err := os.Open(outPath)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := instance.ReadMapping(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: ReadMapping: %v", solver, err)
		}
		if want := core.Period(in, mp); mj.Period != want {
			t.Fatalf("%s: written period %v, mapping's period %v", solver, mj.Period, want)
		}
		if solver == "exact" {
			if mj.Proven == nil || !*mj.Proven || mj.Nodes <= 0 {
				t.Fatalf("exact: proven %v, nodes %d; want a proof with its node count\n%s", mj.Proven, mj.Nodes, raw)
			}
		} else if mj.Proven != nil || mj.Nodes != 0 {
			t.Fatalf("%s: a heuristic reported a proof or a node count\n%s", solver, raw)
		}
	}
}
