package app

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewChainBasics(t *testing.T) {
	a, err := NewChain([]TypeID{0, 1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NumTasks(); got != 5 {
		t.Fatalf("NumTasks = %d, want 5", got)
	}
	if got := a.NumTypes(); got != 2 {
		t.Fatalf("NumTypes = %d, want 2", got)
	}
	if !a.IsChain() {
		t.Fatal("chain not recognized as chain")
	}
	if a.Root() != 4 {
		t.Fatalf("Root = %d, want 4", a.Root())
	}
	if got := a.Successor(2); got != 3 {
		t.Fatalf("Successor(2) = %d, want 3", got)
	}
	if got := a.Successor(4); got != NoTask {
		t.Fatalf("Successor(root) = %d, want NoTask", got)
	}
	srcs := a.Sources()
	if len(srcs) != 1 || srcs[0] != 0 {
		t.Fatalf("Sources = %v, want [0]", srcs)
	}
}

func TestNewChainEmpty(t *testing.T) {
	if _, err := NewChain(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestNewChainSingleTask(t *testing.T) {
	a, err := NewChain([]TypeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Root() != 0 || a.NumTasks() != 1 {
		t.Fatalf("bad single-task chain: root=%d n=%d", a.Root(), a.NumTasks())
	}
}

func TestForkRejected(t *testing.T) {
	tasks := []Task{{ID: 0}, {ID: 1}, {ID: 2}}
	deps := []Dep{{0, 1}, {0, 2}}
	_, err := New(tasks, deps)
	if err == nil || !strings.Contains(err.Error(), "fork") {
		t.Fatalf("fork not rejected: %v", err)
	}
}

func TestCycleRejected(t *testing.T) {
	tasks := []Task{{ID: 0}, {ID: 1}, {ID: 2}}
	deps := []Dep{{0, 1}, {1, 2}, {2, 0}}
	if _, err := New(tasks, deps); err == nil {
		t.Fatal("cycle not rejected")
	}
}

func TestTwoRootsRejected(t *testing.T) {
	tasks := []Task{{ID: 0}, {ID: 1}, {ID: 2}}
	deps := []Dep{{0, 1}}
	if _, err := New(tasks, deps); err == nil {
		t.Fatal("disconnected second root not rejected")
	}
}

func TestSelfDependencyRejected(t *testing.T) {
	tasks := []Task{{ID: 0}}
	if _, err := New(tasks, []Dep{{0, 0}}); err == nil {
		t.Fatal("self dependency not rejected")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	tasks := []Task{{ID: 0}, {ID: 0}}
	if _, err := New(tasks, nil); err == nil {
		t.Fatal("duplicate ID not rejected")
	}
}

func TestOutOfRangeIDRejected(t *testing.T) {
	tasks := []Task{{ID: 0}, {ID: 5}}
	if _, err := New(tasks, nil); err == nil {
		t.Fatal("out-of-range ID not rejected")
	}
}

func TestNegativeTypeRejected(t *testing.T) {
	tasks := []Task{{ID: 0, Type: -1}}
	if _, err := New(tasks, nil); err == nil {
		t.Fatal("negative type not rejected")
	}
}

func TestUnknownDepRejected(t *testing.T) {
	tasks := []Task{{ID: 0}}
	if _, err := New(tasks, []Dep{{0, 3}}); err == nil {
		t.Fatal("dependency on unknown task not rejected")
	}
}

func TestJoinTree(t *testing.T) {
	// Two branches of 2 tasks joined by task 4 (the paper's Figure 1 shape).
	b := NewBuilder()
	_, l1 := b.AddChain(0, 1)
	_, l2 := b.AddChain(0, 1)
	root := b.Join(2, "merge", l1, l2)
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.IsChain() {
		t.Fatal("join tree claimed to be a chain")
	}
	if a.Root() != root {
		t.Fatalf("root = %d, want %d", a.Root(), root)
	}
	if got := len(a.Predecessors(root)); got != 2 {
		t.Fatalf("join has %d predecessors, want 2", got)
	}
	if got := len(a.Sources()); got != 2 {
		t.Fatalf("%d sources, want 2", got)
	}
}

func TestTopologicalOrderProperty(t *testing.T) {
	// Every task must appear after all of its predecessors.
	check := func(a *Application) bool {
		pos := map[TaskID]int{}
		for k, id := range a.Topological() {
			pos[id] = k
		}
		for i := 0; i < a.NumTasks(); i++ {
			for _, p := range a.Predecessors(TaskID(i)) {
				if pos[p] >= pos[TaskID(i)] {
					return false
				}
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := randomInTree(rng, 1+rng.Intn(20))
		if !check(a) {
			t.Fatalf("trial %d: topological order violated for %v", trial, a)
		}
		rev := a.ReverseTopological()
		if rev[0] != a.Root() {
			t.Fatalf("reverse topological does not start at the root")
		}
	}
}

// TestDepth: Depth counts the edges down to the root, so the root is at 0
// and every task sits one deeper than its successor.
func TestDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		a := randomInTree(rng, 1+rng.Intn(20))
		if d := a.Depth(a.Root()); d != 0 {
			t.Fatalf("trial %d: root depth %d, want 0", trial, d)
		}
		for i := 0; i < a.NumTasks(); i++ {
			id := TaskID(i)
			if s := a.Successor(id); s != NoTask && a.Depth(id) != a.Depth(s)+1 {
				t.Fatalf("trial %d: depth(T%d) = %d, successor's %d", trial, i, a.Depth(id), a.Depth(s))
			}
		}
	}
	chain := MustChain([]TypeID{0, 1, 2, 0})
	for i := 0; i < chain.NumTasks(); i++ {
		id := TaskID(i)
		want := 0
		for s := chain.Successor(id); s != NoTask; s = chain.Successor(s) {
			want++
		}
		if chain.Depth(id) != want {
			t.Fatalf("chain depth(T%d) = %d, want %d", i, chain.Depth(id), want)
		}
	}
}

// randomInTree builds a random in-tree of n tasks: each non-root task picks
// a random successor among the tasks created after it.
func randomInTree(rng *rand.Rand, n int) *Application {
	tasks := make([]Task, n)
	var deps []Dep
	for i := 0; i < n; i++ {
		tasks[i] = Task{ID: TaskID(i), Type: TypeID(rng.Intn(3))}
		if i > 0 {
			// Successor chosen among later-created tasks... build
			// reversed: task i's successor is some j < i.
			deps = append(deps, Dep{From: TaskID(i), To: TaskID(rng.Intn(i))})
		}
	}
	a, err := New(tasks, deps)
	if err != nil {
		panic(err)
	}
	return a
}

func TestCyclicTypes(t *testing.T) {
	got := CyclicTypes(7, 3)
	want := []TypeID{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CyclicTypes(7,3) = %v, want %v", got, want)
		}
	}
}

func TestTypeCounts(t *testing.T) {
	a := MustChain([]TypeID{0, 1, 0, 2, 0})
	c := a.TypeCounts()
	if c[0] != 3 || c[1] != 1 || c[2] != 1 {
		t.Fatalf("TypeCounts = %v", c)
	}
}

func TestStringFormat(t *testing.T) {
	a := MustChain([]TypeID{0, 1})
	if got := a.String(); got != "chain(n=2,p=2)" {
		t.Fatalf("String = %q", got)
	}
}

func TestBuilderAddChainEmpty(t *testing.T) {
	b := NewBuilder()
	f, l := b.AddChain()
	if f != NoTask || l != NoTask {
		t.Fatalf("empty AddChain = (%d,%d), want NoTask", f, l)
	}
}

func TestQuickChainShape(t *testing.T) {
	// Property: a chain of n tasks has one source, and its topological
	// order is 0..n-1.
	f := func(raw uint8) bool {
		n := int(raw%30) + 1
		types := make([]TypeID, n)
		a, err := NewChain(types)
		if err != nil {
			return false
		}
		if len(a.Sources()) != 1 {
			return false
		}
		for k, id := range a.Topological() {
			if int(id) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
