package instance

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/gen"
)

func TestRoundTripThroughJSON(t *testing.T) {
	in, err := gen.Chain(gen.Default(6, 2, 3), gen.RNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FromInstance(in, "round trip").Write(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Comment != "round trip" {
		t.Fatalf("comment = %q", f.Comment)
	}
	back, err := f.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != in.N() || back.M() != in.M() || back.P() != in.P() {
		t.Fatalf("dims changed: %d/%d/%d", back.N(), back.M(), back.P())
	}
	for i := 0; i < in.N(); i++ {
		id := app.TaskID(i)
		if back.App.Type(id) != in.App.Type(id) {
			t.Fatal("types changed")
		}
		if back.App.Successor(id) != in.App.Successor(id) {
			t.Fatal("deps changed")
		}
		for u := 0; u < in.M(); u++ {
			if back.Platform.Row(id)[u] != in.Platform.Row(id)[u] {
				t.Fatal("times changed")
			}
			if back.Failures.Row(id)[u] != in.Failures.Row(id)[u] {
				t.Fatal("failures changed")
			}
		}
	}
}

func TestInTreeRoundTrip(t *testing.T) {
	in, err := gen.InTree(gen.Default(9, 2, 3), 2, gen.RNG(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FromInstance(in, "").Write(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := f.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	if back.App.IsChain() {
		t.Fatal("in-tree flattened to a chain")
	}
}

func TestSaveLoadFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inst.json")
	in, err := gen.Chain(gen.Default(4, 2, 3), gen.RNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(path, in, "disk"); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 {
		t.Fatalf("n = %d", back.N())
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage JSON accepted")
	}
}

func TestBadFileRejectedAtToInstance(t *testing.T) {
	f := &File{
		Tasks:    []TaskJSON{{ID: 0, Type: 0}},
		Times:    [][]float64{{-5}}, // invalid time
		Failures: [][]float64{{0.1}},
	}
	if _, err := f.ToInstance(); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestMappingRoundTrip(t *testing.T) {
	m := core.NewMapping(3)
	m.Assign(0, 2)
	m.Assign(1, 0)
	m.Assign(2, 1)
	var buf bytes.Buffer
	if err := FromMapping(m, "map").Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMapping(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != m.String() {
		t.Fatalf("mapping changed: %v vs %v", back, m)
	}
	if _, err := ReadMapping(strings.NewReader("[")); err == nil {
		t.Fatal("garbage mapping accepted")
	}
}

func TestMachineNamesSurvive(t *testing.T) {
	in, err := gen.Chain(gen.Default(3, 2, 2), gen.RNG(1))
	if err != nil {
		t.Fatal(err)
	}
	in.Platform.SetName(0, "press")
	f := FromInstance(in, "")
	back, err := f.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	if back.Platform.Name(0) != "press" {
		t.Fatalf("name = %q", back.Platform.Name(0))
	}
}
