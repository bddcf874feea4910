package app

import (
	"fmt"
)

// NewChain builds a linear chain application T0 -> T1 -> ... -> T(n-1) with
// the given task types (one per task, in chain order).
func NewChain(types []TypeID) (*Application, error) {
	n := len(types)
	if n == 0 {
		return nil, fmt.Errorf("app: chain needs at least one task")
	}
	tasks := make([]Task, n)
	deps := make([]Dep, 0, n-1)
	for i := 0; i < n; i++ {
		tasks[i] = Task{ID: TaskID(i), Type: types[i], Name: fmt.Sprintf("T%d", i+1)}
		if i+1 < n {
			deps = append(deps, Dep{From: TaskID(i), To: TaskID(i + 1)})
		}
	}
	return New(tasks, deps)
}

// MustChain is NewChain that panics on error; intended for tests and
// examples with constant input.
func MustChain(types []TypeID) *Application {
	a, err := NewChain(types)
	if err != nil {
		panic(err)
	}
	return a
}

// CyclicTypes returns n types cycling through p values: 0,1,...,p-1,0,1,...
// It is a convenient way to build the paper's "n tasks of p types" chains.
func CyclicTypes(n, p int) []TypeID {
	ts := make([]TypeID, n)
	for i := range ts {
		ts[i] = TypeID(i % p)
	}
	return ts
}

// Builder incrementally assembles an application. Tasks are created with
// AddTask (IDs are assigned densely in call order) and connected with
// AddDep; Build validates and freezes the graph.
type Builder struct {
	tasks []Task
	deps  []Dep
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddTask appends a task of the given type and returns its ID.
func (b *Builder) AddTask(ty TypeID, name string) TaskID {
	id := TaskID(len(b.tasks))
	if name == "" {
		name = fmt.Sprintf("T%d", id+1)
	}
	b.tasks = append(b.tasks, Task{ID: id, Type: ty, Name: name})
	return id
}

// AddDep records that from's output is consumed by to.
func (b *Builder) AddDep(from, to TaskID) {
	b.deps = append(b.deps, Dep{From: from, To: to})
}

// AddChain appends a fresh chain of tasks with the given types and returns
// the first and last task IDs of the chain.
func (b *Builder) AddChain(types ...TypeID) (first, last TaskID) {
	if len(types) == 0 {
		return NoTask, NoTask
	}
	first = b.AddTask(types[0], "")
	prev := first
	for _, ty := range types[1:] {
		id := b.AddTask(ty, "")
		b.AddDep(prev, id)
		prev = id
	}
	return first, prev
}

// Join appends a new task of the given type consuming the outputs of all
// parents (a physical merge) and returns its ID.
func (b *Builder) Join(ty TypeID, name string, parents ...TaskID) TaskID {
	id := b.AddTask(ty, name)
	for _, p := range parents {
		b.AddDep(p, id)
	}
	return id
}

// NumTasks returns the number of tasks added so far.
func (b *Builder) NumTasks() int { return len(b.tasks) }

// Build validates the assembled graph and returns the Application.
func (b *Builder) Build() (*Application, error) {
	return New(b.tasks, b.deps)
}
