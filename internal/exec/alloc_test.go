package exec

import (
	"runtime"
	"testing"

	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/plan"
)

// TestExecutorSteadyStateAllocs pins the allocation behavior of the hot
// enumeration loop on the compact read path: once the DB cache is warm
// and every scratch buffer has grown to its working size, re-running
// tasks must allocate (almost) nothing — no per-embedding garbage, no
// per-instruction set copies, no per-prefetch scratch. A regression
// here is exactly the failure mode that cost the compact data plane its
// wall-clock win when it landed (see docs/PERFORMANCE.md).
func TestExecutorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun counts are not meaningful")
	}
	// The graph is swept as generated (the rank path) and relabelled by
	// ≺ under its identity order (the bound path).
	g := gen.ErdosRenyi(200, 1600, 42)
	st := estimate.NewStats(g, estimate.MaxMomentDefault)
	for _, tc := range []struct {
		name string
		p    *graph.Pattern
	}{
		{"triangle", gen.Triangle()},
		{"q4", gen.Q(4)},
		{"square", gen.Square()},
		{"q6", gen.Q(6)}, // two mirrored registers: the bitsets are allocated once, in the warm-up sweep
	} {
		for _, g := range []*graph.Graph{g, graph.Relabel(g)} {
			ord := graph.NewTotalOrder(g)
			name := tc.name
			if ord.Identity() {
				name += "-identity"
			}
			t.Run(name, func(t *testing.T) {
				res, err := plan.GenerateBestPlan(tc.p, st, plan.OptimizedUncompressed)
				if err != nil {
					t.Fatalf("GenerateBestPlan: %v", err)
				}
				prog, err := Compile(res.Plan)
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				// The executor is told nothing: it takes the compact path and
				// prefetches because the source says so. Were it to read this
				// source's compact entries raw, each would decode per call and
				// blow the budget below.
				src := NewCachedSourceWith(kv.NewLocal(g), g.SizeBytes()*4, SourceOptions{Compact: true, Prefetch: true})
				e := NewExecutor(prog, src, g.NumVertices(), ord, Options{})
				sweep := func() {
					for v := 0; v < g.NumVertices(); v++ {
						if _, err := e.Run(Task{Start: int64(v)}); err != nil {
							t.Fatalf("Run(start=%d): %v", v, err)
						}
					}
				}
				sweep() // warm: fill the cache, size every scratch buffer
				if e.Stats().Matches == 0 {
					t.Fatal("graph has no matches; the test exercises nothing")
				}
				allocs := testing.AllocsPerRun(5, sweep)
				// One full sweep is numVertices tasks and (for these patterns)
				// thousands of embeddings. Budget a handful of stray
				// allocations (sync.Pool refills after a GC) — anything per
				// task or per embedding lands far above this.
				if allocs > 8 {
					t.Errorf("steady-state sweep allocates %.1f times (budget 8): "+
						"per-task or per-embedding garbage crept back into the hot loop", allocs)
				}
			})
		}
	}
}

// TestWindowFrontierSteadyStateAllocs: the window's second phase — the
// off-the-books read of every start list (decoded, on the compact path),
// the level's filters, the uncached-key filter, sort and de-duplication —
// runs in pooled scratch. With the cache warm there is nothing to fetch,
// so a window allocates nothing at all.
func TestWindowFrontierSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun counts are not meaningful")
	}
	g := gen.PowerLaw(gen.PowerLawConfig{N: 600, EdgesPer: 4, Triad: 0.3, Seed: 3})
	ord := graph.NewTotalOrder(g)
	for _, compact := range []bool{false, true} {
		res, err := plan.GenerateBestPlan(gen.Triangle(), estimate.NewStats(g, estimate.MaxMomentDefault), plan.OptimizedUncompressed)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		src := NewCachedSourceWith(kv.NewLocal(g), g.SizeBytes()*4, SourceOptions{Compact: compact, Prefetch: true})
		e := NewExecutor(prog, src, g.NumVertices(), ord, Options{})
		base := 0
		task := func(i int) Task { return Task{Start: int64(base + i)} }
		sweep := func() {
			for base = 0; base+defaultBatchSize <= g.NumVertices(); base += defaultBatchSize {
				src.PrefetchWindow(e, defaultBatchSize, task)
			}
		}
		sweep() // warm: every window's starts and frontier are resident afterwards
		if windows := int64(g.NumVertices() / defaultBatchSize); src.RemoteTrips() <= windows {
			t.Fatalf("compact=%v: %d store trips for %d windows: the frontier phase did not run", compact, src.RemoteTrips(), windows)
		}
		if allocs := testing.AllocsPerRun(5, sweep); allocs > 2 {
			t.Errorf("compact=%v: a sweep of warm windows allocates %.1f times (budget 2 for pool refills)", compact, allocs)
		}
	}
}

// TestDeltaCountAllocsNoBitsetWhenAnchorFails: bitsets are allocated on
// first mark, so a DeltaEnumerator.Count — one fresh executor per
// anchored plan, about half of which die at the anchor check — pays
// ⌈|V|/64⌉ words only in the executors that go on to define a mirrored
// register. On a 100 000-vertex graph that is edgeless but for one
// triangle a bitset is 12.5 KB and everything else an executor allocates
// is well under 2 KB, so allocating them at construction would show.
func TestDeltaCountAllocsNoBitsetWhenAnchorFails(t *testing.T) {
	const n = 100_000
	const bitsetBytes = n / 8
	g := graph.FromEdges(n, [][2]int64{{0, 1}, {1, 2}, {0, 2}})
	ord := graph.NewTotalOrder(g)
	d, err := NewDeltaEnumerator(gen.Clique(4), plan.OptimizedUncompressed)
	if err != nil {
		t.Fatal(err)
	}
	// Slots of the plans whose task survives its anchor check (it then
	// issues DBQs), and of those whose task does not.
	live, dead := 0, 0
	for _, prog := range d.progs {
		s, err := NewExecutor(prog, GraphSource{G: g}, n, ord, Options{}).Run(Task{Start: 0, Start2: 1})
		if err != nil {
			t.Fatal(err)
		}
		if s.DBQueries > 0 {
			live += prog.numSlots
		} else {
			dead += prog.numSlots
		}
	}
	if dead == 0 {
		t.Fatal("every anchored clique4 plan passes its anchor check on (0,1); the test exercises nothing")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		c, err := d.Count(GraphSource{G: g}, n, ord, 0, 1, Options{})
		if err != nil || c != 0 {
			t.Fatalf("Count = %d, %v; a triangle holds no 4-clique", c, err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := int((after.TotalAlloc - before.TotalAlloc) / rounds)
	if budget := live*bitsetBytes + 2048*d.NumPlans(); perCall > budget {
		t.Errorf("Count allocates %d bytes per call, budget %d (%d bitsets of %d bytes in surviving tasks): "+
			"the %d slots of tasks that die at their anchor check are paid for too",
			perCall, budget, live, bitsetBytes, dead)
	}
}
