// Package app models micro-factory applications: directed acyclic graphs of
// typed tasks that are applied successively to physical products.
//
// Following the paper, the graph may contain joins (a task that merges one
// sub-product from each of its predecessors into a new compound product) but
// never forks: a physical product cannot be duplicated, so every task has at
// most one successor. Graphs are therefore in-trees, whose root is the final
// task that outputs finished products. Linear chains — the application class
// used throughout the paper's evaluation — are the single-branch special case.
package app

import (
	"errors"
	"fmt"
	"slices"
)

// TaskID identifies a task within an application. IDs are dense indices in
// [0, NumTasks); the paper's T1..Tn map to 0..n-1.
type TaskID int

// TypeID identifies a task type. Types are dense indices in [0, NumTypes);
// tasks of the same type correspond to the same physical operation and thus
// share execution times on any given machine.
type TypeID int

// NoTask is returned by Successor for the root task (no successor).
const NoTask TaskID = -1

// Task is one operation applied to a product.
type Task struct {
	ID   TaskID
	Type TypeID
	// Name is an optional human-readable label ("glue-lens", "screw-base").
	Name string
}

// Application is an immutable in-tree of typed tasks.
//
// The zero value is not usable; build applications with New, NewChain or
// Builder.
type Application struct {
	tasks []Task
	// succ[i] is the unique successor of task i, or NoTask for the root.
	succ []TaskID
	// preds[i] lists the predecessors of task i in increasing ID order.
	preds [][]TaskID
	// root is the unique task with no successor.
	root TaskID
	// numTypes is 1 + the largest TypeID in use.
	numTypes int
	// topo holds the task IDs in a topological order (predecessors first).
	topo []TaskID
	// depth[i] is the number of edges from task i down to the root.
	depth []int32
}

// Dep is one precedence edge: From must complete on a product before To
// starts (To consumes From's output).
type Dep struct {
	From, To TaskID
}

// New builds an application from a task list and dependency edges and
// validates the in-tree shape. Task IDs must be exactly 0..len(tasks)-1.
func New(tasks []Task, deps []Dep) (*Application, error) {
	n := len(tasks)
	if n == 0 {
		return nil, errors.New("app: application needs at least one task")
	}
	a := &Application{
		tasks: make([]Task, n),
		succ:  make([]TaskID, n),
		preds: make([][]TaskID, n),
		root:  NoTask,
	}
	seen := make(map[TaskID]bool, n)
	for _, t := range tasks {
		if t.ID < 0 || int(t.ID) >= n {
			return nil, fmt.Errorf("app: task ID %d out of range [0,%d)", t.ID, n)
		}
		if seen[t.ID] {
			return nil, fmt.Errorf("app: duplicate task ID %d", t.ID)
		}
		if t.Type < 0 {
			return nil, fmt.Errorf("app: task %d has negative type %d", t.ID, t.Type)
		}
		seen[t.ID] = true
		a.tasks[t.ID] = t
		if int(t.Type)+1 > a.numTypes {
			a.numTypes = int(t.Type) + 1
		}
	}
	for i := range a.succ {
		a.succ[i] = NoTask
	}
	for _, d := range deps {
		if d.From < 0 || int(d.From) >= n || d.To < 0 || int(d.To) >= n {
			return nil, fmt.Errorf("app: dependency %d->%d references unknown task", d.From, d.To)
		}
		if d.From == d.To {
			return nil, fmt.Errorf("app: self-dependency on task %d", d.From)
		}
		if a.succ[d.From] != NoTask {
			// A second outgoing edge would fork the physical product.
			return nil, fmt.Errorf("app: task %d has two successors (%d and %d); forks are impossible on physical products", d.From, a.succ[d.From], d.To)
		}
		a.succ[d.From] = d.To
		a.preds[d.To] = append(a.preds[d.To], d.From)
	}
	for i, s := range a.succ {
		if s == NoTask {
			if a.root != NoTask {
				return nil, fmt.Errorf("app: two roots (%d and %d); the application must have a single output task", a.root, i)
			}
			a.root = TaskID(i)
		}
	}
	if a.root == NoTask {
		return nil, errors.New("app: no root task; the dependency graph has a cycle")
	}
	if err := a.buildTopo(); err != nil {
		return nil, err
	}
	return a, nil
}

// buildTopo fills a.topo and a.depth or reports a cycle. With at most one
// successor per task and a single root, acyclicity is equivalent to every
// task reaching the root, which the reverse BFS below checks. order doubles
// as the BFS queue and depth (-1 until reached) as the visited mark.
func (a *Application) buildTopo() error {
	n := len(a.tasks)
	a.depth = make([]int32, n)
	for i := range a.depth {
		a.depth[i] = -1
	}
	a.depth[a.root] = 0
	order := make([]TaskID, 1, n)
	order[0] = a.root
	for k := 0; k < len(order); k++ {
		t := order[k]
		for _, p := range a.preds[t] {
			if a.depth[p] >= 0 {
				return fmt.Errorf("app: task %d reached twice; graph is not an in-tree", p)
			}
			a.depth[p] = a.depth[t] + 1
			order = append(order, p)
		}
	}
	if len(order) != n {
		return fmt.Errorf("app: %d of %d tasks cannot reach the root; cycle or disconnected component", n-len(order), n)
	}
	// order is root-first (reverse topological); reverse it so that
	// predecessors come first.
	slices.Reverse(order)
	a.topo = order
	return nil
}

// NumTasks returns n, the number of tasks.
func (a *Application) NumTasks() int { return len(a.tasks) }

// NumTypes returns p, the number of task types (1 + largest TypeID).
func (a *Application) NumTypes() int { return a.numTypes }

// Task returns the task with the given ID.
func (a *Application) Task(id TaskID) Task { return a.tasks[id] }

// Type returns t(i), the type of task i.
func (a *Application) Type(id TaskID) TypeID { return a.tasks[id].Type }

// Successor returns the unique successor of a task, or NoTask for the root.
func (a *Application) Successor(id TaskID) TaskID { return a.succ[id] }

// Predecessors returns the (possibly empty) predecessor list of a task. The
// returned slice must not be modified.
func (a *Application) Predecessors(id TaskID) []TaskID { return a.preds[id] }

// Depth returns the number of edges on task id's successor chain down to
// the root (0 for the root). A task's in-tree prefix holds only deeper
// tasks, so sorting by depth puts every task before its feeders.
func (a *Application) Depth(id TaskID) int { return int(a.depth[id]) }

// Root returns the final task, whose outputs leave the system.
func (a *Application) Root() TaskID { return a.root }

// Sources returns the tasks with no predecessor (raw-product entry points),
// in increasing ID order.
func (a *Application) Sources() []TaskID {
	var s []TaskID
	for i := range a.tasks {
		if len(a.preds[i]) == 0 {
			s = append(s, TaskID(i))
		}
	}
	return s
}

// Topological returns the task IDs in an order where every task appears
// after all its predecessors. The returned slice must not be modified.
func (a *Application) Topological() []TaskID { return a.topo }

// ReverseTopological returns tasks root-first: every task appears before all
// of its predecessors. This is the traversal order of the paper's heuristics
// ("starting with the last task ... going backward to the first one").
func (a *Application) ReverseTopological() []TaskID {
	rev := make([]TaskID, len(a.topo))
	for i, t := range a.topo {
		rev[len(a.topo)-1-i] = t
	}
	return rev
}

// IsChain reports whether the application is a linear chain (every task has
// at most one predecessor).
func (a *Application) IsChain() bool {
	for _, p := range a.preds {
		if len(p) > 1 {
			return false
		}
	}
	return true
}

// TypeCounts returns, for each type, how many tasks have that type.
func (a *Application) TypeCounts() []int {
	c := make([]int, a.numTypes)
	for _, t := range a.tasks {
		c[t.Type]++
	}
	return c
}

// String returns a compact description such as "chain(n=5,p=2)".
func (a *Application) String() string {
	shape := "intree"
	if a.IsChain() {
		shape = "chain"
	}
	return fmt.Sprintf("%s(n=%d,p=%d)", shape, a.NumTasks(), a.NumTypes())
}
