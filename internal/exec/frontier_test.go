package exec

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"benu/internal/cache"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
)

// Tests for the first-level frontier: which programs Compile marks, that
// the level computed from a start list is the level the executor runs,
// and what the window's second phase does to the store, the cache's books
// and the allocator.

// frontierSummary renders the instruction that supplies a qualifying
// program's first-level filters as "C2:INT" (or "f3:ENU" when the loop
// iterates A(f₁) unfiltered); "" when the program does not qualify.
func frontierSummary(prog *Program) string {
	if prog.frontierPC < 0 {
		return ""
	}
	return fmt.Sprintf("%s:%s", prog.code[prog.frontierPC].Target, prog.instrs[prog.frontierPC].op)
}

// TestFrontierGolden pins the analysis on the catalogue: VCBC plans
// first, uncompressed second. star4 has no ENU compressed, and
// uncompressed its first ENU binds a leaf nobody DB-queries.
func TestFrontierGolden(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 300, EdgesPer: 4, Triad: 0.3, Seed: 11})
	golden := map[string][2]string{
		"triangle":       {"C2:INT", "C2:INT"},
		"square":         {"C2:INT", "C2:INT"},
		"chordal-square": {"C3:INT", "C3:INT"},
		"q1":             {"C2:INT", "C2:INT"},
		"q2":             {"C2:INT", "C2:INT"},
		"q3":             {"f3:ENU", "f3:ENU"},
		"q4":             {"C3:INT", "C3:INT"},
		"q5":             {"C2:INT", "C2:INT"},
		"q6":             {"f3:ENU", "f3:ENU"},
		"q7":             {"C3:INT", "C3:INT"},
		"q8":             {"f2:ENU", "f2:ENU"},
		"q9":             {"C3:INT", "C3:INT"},
		"clique4":        {"C2:INT", "C2:INT"},
		"clique5":        {"C2:INT", "C2:INT"},
		"cycle5":         {"f3:ENU", "f3:ENU"},
		"path4":          {"f3:ENU", "f3:ENU"},
		"star4":          {"", ""},
		"demo":           {"f3:ENU", "f3:ENU"},
	}
	for _, name := range cataloguePatterns {
		p, err := gen.PatternByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, vcbc := range []bool{true, false} {
			prog := compileBest(t, p, g, plan.Options{CSE: true, Reorder: true, TriangleCache: true, VCBC: vcbc})
			if got := frontierSummary(prog); got != golden[name][i] {
				t.Errorf("%s vcbc=%v: frontier %q, want %q\n%s", name, vcbc, got, golden[name][i], prog.Plan)
			}
			if pc := prog.frontierPC; pc >= 0 {
				if !prog.instrs[prog.splitPC].prefetch {
					t.Errorf("%s vcbc=%v: qualifies though its first ENU is not prefetch-marked", name, vcbc)
				}
				if !filtersReadOnly(prog.instrs[pc].filters, prog.Plan.Order[0]) {
					t.Errorf("%s vcbc=%v: level filters %v read a vertex other than f%d", name, vcbc,
						prog.code[pc].Filters, prog.Plan.Order[0]+1)
				}
			}
		}
	}
}

// vgFirstLevelPlan is a triangle plan whose first ENU iterates V(G) and
// whose target is DB-queried: prefetch-marked, but no function of A(f₁).
func vgFirstLevelPlan(t *testing.T) *plan.Plan {
	t.Helper()
	f := func(i int) plan.VarRef { return plan.VarRef{Kind: plan.VarF, Index: i} }
	a := func(i int) plan.VarRef { return plan.VarRef{Kind: plan.VarA, Index: i} }
	c2 := plan.VarRef{Kind: plan.VarC, Index: 2}
	pl := &plan.Plan{
		Pattern: gen.Triangle(),
		Order:   []int{0, 1, 2},
		Instrs: []plan.Instruction{
			{Op: plan.OpINI, Target: f(0)},
			{Op: plan.OpDBQ, Target: a(0), Operands: []plan.VarRef{f(0)}},
			{Op: plan.OpENU, Target: f(1), Operands: []plan.VarRef{plan.VG}},
			{Op: plan.OpDBQ, Target: a(1), Operands: []plan.VarRef{f(1)}},
			{Op: plan.OpINT, Target: c2, Operands: []plan.VarRef{a(0), a(1)}},
			{Op: plan.OpENU, Target: f(2), Operands: []plan.VarRef{c2}},
			{Op: plan.OpRES, Operands: []plan.VarRef{f(0), f(1), f(2)}},
		},
	}
	if err := pl.Validate(); err != nil {
		t.Fatalf("hand-built plan invalid: %v", err)
	}
	return pl
}

// TestFrontierDoesNotQualify: anchored (delta) plans have no window of
// start lists, and a first level over V(G) is no function of one.
func TestFrontierDoesNotQualify(t *testing.T) {
	d, err := NewDeltaEnumerator(gen.Clique(4), plan.OptimizedUncompressed)
	if err != nil {
		t.Fatal(err)
	}
	for i, prog := range d.progs {
		if prog.frontierPC >= 0 {
			t.Errorf("anchored plan %d qualifies (frontier %s)\n%s", i, frontierSummary(prog), prog.Plan)
		}
	}
	prog, err := Compile(vgFirstLevelPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if !prog.instrs[prog.splitPC].prefetch {
		t.Fatal("the V(G) plan's first ENU is not prefetch-marked: the test exercises the wrong exit")
	}
	if prog.frontierPC >= 0 {
		t.Errorf("a first ENU over V(G) qualifies (frontier %s)", frontierSummary(prog))
	}
}

// levelSpy is an AdjSource that records, through the executor it serves,
// the vertices DB-queried at recursion depth 1: those of the first ENU's
// candidates whose branch got as far as their DBQ, in iteration order.
type levelSpy struct {
	GraphSource
	e    *Executor
	seen []int64
}

func (s *levelSpy) GetAdj(v int64) ([]int64, error) {
	if s.e.depth == 1 {
		s.seen = append(s.seen, v)
	}
	return s.GraphSource.GetAdj(v)
}

// firstLevel returns prog cut after its first ENU, reporting each vertex
// that loop binds as an uncompressed match: the level itself, observed
// without relying on any instruction beneath it.
func firstLevel(prog *Program) *Program {
	lvl := *prog
	pl := *prog.Plan
	pl.Compressed = false
	lvl.Plan = &pl
	lvl.instrs = append(slices.Clone(prog.instrs[:prog.splitPC+1]), cInstr{op: plan.OpRES, markSlot: noSlot, probeSlot: noSlot})
	return &lvl
}

// tasksWithSplitting is §V-B task generation for plans whose second
// vertex anchors on the start's adjacency.
func tasksWithSplitting(g *graph.Graph, tau int) []Task {
	var tasks []Task
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(int64(v))
		if d < tau {
			tasks = append(tasks, Task{Start: int64(v)})
			continue
		}
		parts := (d + tau - 1) / tau
		for i := 0; i < parts; i++ {
			tasks = append(tasks, Task{Start: int64(v), SplitIndex: i, SplitCount: parts})
		}
	}
	return tasks
}

// checkFrontierIsLevel runs every task (whole and τ=4-split) and compares
// what AppendFrontier computes from the start list with what the first
// ENU then binds. The vertices the full program DB-queries at that level
// are among them: an empty set beneath the loop can end a branch before
// its DBQ, so a frontier prefetch may install lists the task skips.
func checkFrontierIsLevel(t *testing.T, name string, prog *Program, g *graph.Graph, opts Options) {
	t.Helper()
	if prog.frontierPC < 0 {
		t.Fatalf("%s: program does not qualify\n%s", name, prog.Plan)
	}
	ord := graph.NewTotalOrder(g)
	spy := &levelSpy{GraphSource: GraphSource{G: g}}
	e := NewExecutor(prog, spy, g.NumVertices(), ord, opts)
	spy.e = e
	var bound []int64
	v := prog.instrs[prog.splitPC].vertex
	lvlOpts := opts
	lvlOpts.Emit = func(f []int64) bool {
		bound = append(bound, f[v])
		return true
	}
	lvl := NewExecutor(firstLevel(prog), GraphSource{G: g}, g.NumVertices(), ord, lvlOpts)
	var scratch []int64
	nonEmpty, strided := 0, 0
	for _, tau := range []int{0, 4} {
		tasks := []Task{}
		if tau == 0 {
			for v := 0; v < g.NumVertices(); v++ {
				tasks = append(tasks, Task{Start: int64(v)})
			}
		} else {
			tasks = tasksWithSplitting(g, tau)
		}
		for _, task := range tasks {
			scratch = e.AppendFrontier(scratch[:0], task, g.Adj(task.Start))
			bound = bound[:0]
			if _, err := lvl.Run(task); err != nil {
				t.Fatalf("%s: first level of %+v: %v", name, task, err)
			}
			if !slices.Equal(scratch, bound) {
				t.Fatalf("%s task %+v: frontier %v, the first ENU bound %v\n%s", name, task, scratch, bound, prog.Plan)
			}
			spy.seen = spy.seen[:0]
			if _, err := e.Run(task); err != nil {
				t.Fatalf("%s: Run(%+v): %v", name, task, err)
			}
			for _, u := range spy.seen {
				if !slices.Contains(scratch, u) {
					t.Fatalf("%s task %+v: the first level DB-queried %d, outside the frontier %v\n%s", name, task, u, scratch, prog.Plan)
				}
			}
			if len(scratch) > 0 {
				nonEmpty++
				if task.SplitCount > 1 {
					strided++
				}
			}
		}
	}
	if nonEmpty == 0 || strided == 0 {
		t.Fatalf("%s: %d non-empty levels, %d of split tasks: the test compares nothing", name, nonEmpty, strided)
	}
}

// TestFrontierIsTheExecutorsLevel: for every qualifying catalogue plan on
// two power-law graphs, and for a labeled and a degree-filtered plan, the
// frontier of every task equals the first ENU's iteration.
func TestFrontierIsTheExecutorsLevel(t *testing.T) {
	graphs := []*graph.Graph{
		gen.PowerLaw(gen.PowerLawConfig{N: 120, EdgesPer: 3, Triad: 0.3, Seed: 5}),
		gen.PowerLaw(gen.PowerLawConfig{N: 90, EdgesPer: 4, Triad: 0.5, Seed: 17}),
	}
	checked := 0
	for gi, g := range graphs {
		for _, name := range cataloguePatterns {
			if name == "star4" {
				continue
			}
			p, err := gen.PatternByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, vcbc := range []bool{true, false} {
				prog := compileBest(t, p, g, plan.Options{CSE: true, Reorder: true, TriangleCache: true, VCBC: vcbc})
				if prog.frontierPC < 0 {
					continue // the best plan on this graph opens over V(G) (square, VCBC, on the second)
				}
				checkFrontierIsLevel(t, fmt.Sprintf("%s/g%d/vcbc=%v", name, gi, vcbc), prog, g, Options{TriangleCacheEntries: 64})
				checked++
			}
		}

		filtered := plan.OptimizedUncompressed
		filtered.DegreeFilter = true
		prog := compileBest(t, gen.Q(4), g, filtered)
		if !prog.Plan.DegreeFiltered {
			t.Fatal("q4 plan not degree-filtered")
		}
		checkFrontierIsLevel(t, fmt.Sprintf("q4+deg/g%d", gi), prog, g, Options{DegreeOf: g.Degree})

		labels := make([]int64, g.NumVertices())
		for v := range labels {
			labels[v] = int64(v % 2)
		}
		lg, err := g.WithVertexLabels(labels)
		if err != nil {
			t.Fatal(err)
		}
		prog = compileBest(t, labeledTriangle(t, []int64{0, 1, 1}), lg, plan.OptimizedUncompressed)
		checkFrontierIsLevel(t, fmt.Sprintf("ltri/g%d", gi), prog, lg, Options{LabelOf: lg.Label})
		// Without the oracle Run refuses the task; the frontier is empty, not a panic.
		e := NewExecutor(prog, GraphSource{G: lg}, lg.NumVertices(), graph.NewTotalOrder(lg), Options{})
		if got := e.AppendFrontier(nil, Task{Start: 0}, lg.Adj(0)); len(got) != 0 {
			t.Errorf("ltri/g%d: frontier %v without a label oracle", gi, got)
		}
	}
	if checked < 50 {
		t.Errorf("only %d catalogue programs qualified and were compared", checked)
	}
}

// callLog is a store that keeps the key set of every call.
type callLog struct {
	kv.Store
	mu    sync.Mutex
	calls [][]int64
}

func (s *callLog) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	s.mu.Lock()
	s.calls = append(s.calls, slices.Clone(vs))
	s.mu.Unlock()
	return s.Store.GetAdjBatch(vs)
}

// windowFixture is a triangle program over a small power-law graph
// behind a recording store, and the window of its first n tasks.
type windowFixture struct {
	g     *graph.Graph
	prog  *Program
	store *callLog
	reg   *obs.Registry
	tasks []Task
}

func newWindowFixture(t *testing.T, n int) *windowFixture {
	t.Helper()
	g := gen.PowerLaw(gen.PowerLawConfig{N: 200, EdgesPer: 3, Triad: 0.3, Seed: 29})
	f := &windowFixture{g: g, store: &callLog{Store: kv.NewLocal(g)}, reg: obs.NewRegistry()}
	f.prog = compileBest(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	for v := 0; v < n; v++ {
		f.tasks = append(f.tasks, Task{Start: int64(v)})
	}
	return f
}

func (f *windowFixture) source(capacity int64, compact bool) *CachedSource {
	return NewCachedSourceWith(f.store, capacity, SourceOptions{Compact: compact, Prefetch: true, Obs: f.reg})
}

func (f *windowFixture) executor(src *CachedSource) *Executor {
	return NewExecutor(f.prog, src, f.g.NumVertices(), graph.NewTotalOrder(f.g), Options{Obs: f.reg})
}

func (f *windowFixture) task(i int) Task { return f.tasks[i] }

// TestWindowIsTwoBatches: a window costs the store its start batch and
// one frontier batch — sorted, duplicate-free, disjoint from the starts —
// after which its triangle tasks, whose only DBQs are the start and the
// first level, run without a store call. Raw and compact alike.
func TestWindowIsTwoBatches(t *testing.T) {
	for _, compact := range []bool{false, true} {
		f := newWindowFixture(t, 16)
		src := f.source(4*f.g.SizeBytes(), compact)
		e := f.executor(src)
		src.PrefetchWindow(e, len(f.tasks), f.task)
		if len(f.store.calls) != 2 {
			t.Fatalf("compact=%v: %d store calls for one window, want 2 (starts, frontier): %v", compact, len(f.store.calls), f.store.calls)
		}
		starts, frontier := f.store.calls[0], f.store.calls[1]
		if len(starts) != len(f.tasks) {
			t.Errorf("compact=%v: start batch %v, want the %d starts", compact, starts, len(f.tasks))
		}
		if !slices.IsSorted(frontier) || len(slices.Compact(slices.Clone(frontier))) != len(frontier) {
			t.Errorf("compact=%v: frontier batch %v is not sorted and duplicate-free", compact, frontier)
		}
		want := map[int64]bool{}
		ord := graph.NewTotalOrder(f.g)
		for _, task := range f.tasks {
			for _, v := range f.g.Adj(task.Start) {
				if ord.Less(task.Start, v) && v >= int64(len(f.tasks)) {
					want[v] = true
				}
			}
		}
		if len(frontier) != len(want) {
			t.Errorf("compact=%v: frontier batch has %d keys, want the %d uncached ≻-neighbours", compact, len(frontier), len(want))
		}
		for _, v := range frontier {
			if !want[v] {
				t.Errorf("compact=%v: frontier fetched %d, no task's first-level candidate outside the window", compact, v)
			}
		}
		var matches int64
		for _, task := range f.tasks {
			st, err := e.Run(task)
			if err != nil {
				t.Fatal(err)
			}
			matches += st.Matches
		}
		if len(f.store.calls) != 2 {
			t.Errorf("compact=%v: the window's tasks made %d more store calls, want 0", compact, len(f.store.calls)-2)
		}
		if matches == 0 {
			t.Error("the window's tasks found no triangle: the test runs nothing")
		}
		installed, used := f.reg.Counter("source.prefetch.installed").Value(), f.reg.Counter("source.prefetch.used").Value()
		if installed != int64(len(starts)+len(frontier)) || used != installed {
			t.Errorf("compact=%v: prefetch installed %d, used %d; want both %d (every frontier list marked and read)",
				compact, installed, used, len(starts)+len(frontier))
		}
	}
}

// TestWindowFrontierIsOffTheBooks: after both phases and before any task
// runs, the cache's counters have not moved and every start list still
// carries its prefetched mark — the demand reads that follow each consume
// one. (That Peek leaves the reference bit alone is cache's
// TestLRUPeekIsOffTheBooks.)
func TestWindowFrontierIsOffTheBooks(t *testing.T) {
	f := newWindowFixture(t, 16)
	src := f.source(4*f.g.SizeBytes(), true)
	src.PrefetchWindow(f.executor(src), len(f.tasks), f.task)
	if len(f.store.calls) != 2 {
		t.Fatalf("%d store calls, want 2", len(f.store.calls))
	}
	if st := src.Cache().Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("the window moved the cache's counters: %+v", st)
	}
	used := f.reg.Counter("source.prefetch.used")
	if used.Value() != 0 {
		t.Errorf("the frontier walk consumed %d prefetched marks", used.Value())
	}
	for i, task := range f.tasks {
		if _, err := src.getList(task.Start); err != nil {
			t.Fatal(err)
		}
		if used.Value() != int64(i+1) {
			t.Fatalf("start %d: source.prefetch.used = %d after its first demand read, want %d", task.Start, used.Value(), i+1)
		}
	}
}

// TestWindowFrontierBudget: with a cache so small that the budget admits
// only a few keys, the frontier stops early and the tasks past the cut
// fetch their own ENU batch, as before; the count does not notice.
func TestWindowFrontierBudget(t *testing.T) {
	f := newWindowFixture(t, 16)
	src := f.source(f.g.SizeBytes()/4, true)
	e := f.executor(src)
	src.PrefetchWindow(e, len(f.tasks), f.task)
	if len(f.store.calls) != 2 {
		t.Fatalf("%d store calls, want 2", len(f.store.calls))
	}
	perKey := cache.EntryOverhead + src.RemoteBytes()/src.RemoteQueries() // after the start batch only: close enough for a bound
	if got, limit := int64(len(f.store.calls[1])), src.capacity/frontierBudgetDiv/perKey+8; got > limit {
		t.Errorf("frontier batch has %d keys; the budget admits about %d", got, limit)
	}
	var matches int64
	for _, task := range f.tasks {
		st, err := e.Run(task)
		if err != nil {
			t.Fatal(err)
		}
		matches += st.Matches
	}
	if len(f.store.calls) == 2 {
		t.Error("no task past the cut fetched its own batch: the budget did not bite, pick a smaller cache")
	}
	ref := NewExecutor(f.prog, GraphSource{G: f.g}, f.g.NumVertices(), graph.NewTotalOrder(f.g), Options{})
	var want int64
	for _, task := range f.tasks {
		st, _ := ref.Run(task)
		want += st.Matches
	}
	if matches != want {
		t.Errorf("%d matches, want %d", matches, want)
	}
}

// TestWindowWithoutFrontier: no executor or a non-qualifying program
// leave the window at its start batch.
func TestWindowWithoutFrontier(t *testing.T) {
	f := newWindowFixture(t, 16)
	src := f.source(4*f.g.SizeBytes(), true)
	src.PrefetchWindow(nil, len(f.tasks), f.task)
	if len(f.store.calls) != 1 {
		t.Errorf("nil executor: %d store calls, want 1", len(f.store.calls))
	}

	f = newWindowFixture(t, 16)
	src = f.source(4*f.g.SizeBytes(), true)
	star := compileBest(t, gen.Star(4), f.g, plan.OptimizedUncompressed)
	src.PrefetchWindow(NewExecutor(star, src, f.g.NumVertices(), graph.NewTotalOrder(f.g), Options{}), len(f.tasks), f.task)
	if len(f.store.calls) != 1 {
		t.Errorf("non-qualifying program: %d store calls, want 1", len(f.store.calls))
	}
}

// TestWindowNeedsPrefetch: prefetch is the source's switch. A source built
// without it fetches no window, so the runtimes may call PrefetchWindow
// unconditionally, and an executor over it never prefetches either: each
// of its tasks' store calls is a single-key miss.
func TestWindowNeedsPrefetch(t *testing.T) {
	for _, compact := range []bool{false, true} {
		f := newWindowFixture(t, 16)
		src := NewCachedSourceWith(f.store, 4*f.g.SizeBytes(), SourceOptions{Compact: compact, Obs: f.reg})
		e := f.executor(src)
		src.PrefetchWindow(e, len(f.tasks), f.task)
		if len(f.store.calls) != 0 {
			t.Fatalf("compact=%v: a window without prefetch made %d store calls, want 0: %v", compact, len(f.store.calls), f.store.calls)
		}
		for _, task := range f.tasks {
			if _, err := e.Run(task); err != nil {
				t.Fatal(err)
			}
		}
		if len(f.store.calls) == 0 {
			t.Fatalf("compact=%v: the tasks made no store call: the test runs nothing", compact)
		}
		for _, call := range f.store.calls {
			if len(call) != 1 {
				t.Fatalf("compact=%v: a %d-key batch without prefetch: %v", compact, len(call), call)
			}
		}
	}
}
