// Package instance provides a JSON interchange format for problem instances
// (application + platform + failure matrix), so that the CLI tools can read
// and write problems and mappings as files.
package instance

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"microfab/internal/app"
	"microfab/internal/core"
	"microfab/internal/failure"
	"microfab/internal/platform"
)

// TaskJSON is one task in the file format.
type TaskJSON struct {
	ID   int    `json:"id"`
	Type int    `json:"type"`
	Name string `json:"name,omitempty"`
}

// DepJSON is one precedence edge.
type DepJSON struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// File is the on-disk representation of an instance.
type File struct {
	// Comment is free text (provenance, generator seed, ...).
	Comment string     `json:"comment,omitempty"`
	Tasks   []TaskJSON `json:"tasks"`
	Deps    []DepJSON  `json:"deps"`
	// Times[i][u] is w[i][u] in ms.
	Times [][]float64 `json:"times"`
	// Failures[i][u] is f[i][u] in [0,1).
	Failures [][]float64 `json:"failures"`
	// MachineNames optionally labels machines.
	MachineNames []string `json:"machineNames,omitempty"`
}

// FromInstance converts a core.Instance into its file form.
func FromInstance(in *core.Instance, comment string) *File {
	n, m := in.N(), in.M()
	f := &File{Comment: comment}
	for i := 0; i < n; i++ {
		t := in.App.Task(app.TaskID(i))
		f.Tasks = append(f.Tasks, TaskJSON{ID: int(t.ID), Type: int(t.Type), Name: t.Name})
		if s := in.App.Successor(t.ID); s != app.NoTask {
			f.Deps = append(f.Deps, DepJSON{From: i, To: int(s)})
		}
	}
	f.Times = make([][]float64, n)
	f.Failures = make([][]float64, n)
	for i := 0; i < n; i++ {
		f.Times[i] = append([]float64(nil), in.Platform.Row(app.TaskID(i))...)
		f.Failures[i] = append([]float64(nil), in.Failures.Row(app.TaskID(i))...)
	}
	f.MachineNames = make([]string, m)
	for u := 0; u < m; u++ {
		f.MachineNames[u] = in.Platform.Name(platform.MachineID(u))
	}
	return f
}

// ToInstance validates the file and builds the core.Instance.
func (f *File) ToInstance() (*core.Instance, error) {
	tasks := make([]app.Task, len(f.Tasks))
	for i, t := range f.Tasks {
		tasks[i] = app.Task{ID: app.TaskID(t.ID), Type: app.TypeID(t.Type), Name: t.Name}
	}
	deps := make([]app.Dep, len(f.Deps))
	for i, d := range f.Deps {
		deps[i] = app.Dep{From: app.TaskID(d.From), To: app.TaskID(d.To)}
	}
	a, err := app.New(tasks, deps)
	if err != nil {
		return nil, err
	}
	p, err := platform.New(f.Times)
	if err != nil {
		return nil, err
	}
	for u, name := range f.MachineNames {
		if u < p.NumMachines() && name != "" {
			p.SetName(platform.MachineID(u), name)
		}
	}
	fm, err := failure.New(f.Failures)
	if err != nil {
		return nil, err
	}
	return core.NewInstance(a, p, fm)
}

// Write encodes the file as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Read decodes a file from JSON.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("instance: decode: %w", err)
	}
	return &f, nil
}

// Load reads and validates an instance from a JSON file on disk.
func Load(path string) (*core.Instance, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	f, err := Read(fd)
	if err != nil {
		return nil, fmt.Errorf("instance: %s: %w", path, err)
	}
	return f.ToInstance()
}

// Save writes an instance to a JSON file on disk.
func Save(path string, in *core.Instance, comment string) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	return FromInstance(in, comment).Write(fd)
}

// MappingJSON serialises an allocation. The solver that wrote it may add
// what it knows about the mapping; readers need only Assign.
type MappingJSON struct {
	Comment string `json:"comment,omitempty"`
	// Assign[i] is the machine index of task i.
	Assign []int `json:"assign"`
	// Period is the mapping's period in ms, when the writer evaluated it.
	Period float64 `json:"period,omitempty"`
	// Proven and Nodes come from an exact solve: whether its search proved
	// the period optimal, and how many nodes it explored.
	Proven *bool `json:"proven,omitempty"`
	Nodes  int64 `json:"nodes,omitempty"`
}

// FromMapping converts a mapping to its file form.
func FromMapping(m *core.Mapping, comment string) *MappingJSON {
	mj := &MappingJSON{Comment: comment, Assign: make([]int, m.Len())}
	for i := 0; i < m.Len(); i++ {
		mj.Assign[i] = int(m.Machine(app.TaskID(i)))
	}
	return mj
}

// ToMapping rebuilds the core.Mapping.
func (mj *MappingJSON) ToMapping() *core.Mapping {
	m := core.NewMapping(len(mj.Assign))
	for i, u := range mj.Assign {
		m.Assign(app.TaskID(i), platform.MachineID(u))
	}
	return m
}

// Write encodes the mapping file as indented JSON.
func (mj *MappingJSON) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mj)
}

// ReadMapping decodes a mapping from JSON.
func ReadMapping(r io.Reader) (*core.Mapping, error) {
	var mj MappingJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("instance: decode mapping: %w", err)
	}
	return mj.ToMapping(), nil
}
