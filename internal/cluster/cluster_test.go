package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/plan"
	"benu/internal/vcbc"
)

func testGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 400, EdgesPer: 4, Triad: 0.5, Seed: 21})
}

func bestPlan(t *testing.T, p *graph.Pattern, g *graph.Graph, opts plan.Options) *plan.Plan {
	t.Helper()
	st := estimate.NewStats(g, estimate.MaxMomentDefault)
	res, err := plan.GenerateBestPlan(p, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

func TestRunMatchesReference(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	store := kv.NewLocal(g)
	for _, qi := range []int{1, 2, 4, 6} {
		p := gen.Q(qi)
		want := graph.RefCount(p, g, ord)
		for _, opts := range []plan.Options{plan.OptimizedUncompressed, plan.AllOptions} {
			pl := bestPlan(t, p, g, opts)
			cfg := Defaults(g)
			res, err := Run(pl, store, ord, g.Degree, cfg)
			if err != nil {
				t.Fatalf("q%d: %v", qi, err)
			}
			if res.Matches != want {
				t.Errorf("q%d compressed=%v: got %d, want %d", qi, opts.VCBC, res.Matches, want)
			}
			if res.Tasks < g.NumVertices() {
				t.Errorf("q%d: only %d tasks for %d vertices", qi, res.Tasks, g.NumVertices())
			}
		}
	}
}

func TestRunWorkerCountInvariance(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	store := kv.NewLocal(g)
	p := gen.Q(4)
	pl := bestPlan(t, p, g, plan.AllOptions)
	want := graph.RefCount(p, g, ord)
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := Defaults(g)
		cfg.Workers = workers
		res, err := Run(pl, store, ord, g.Degree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches != want {
			t.Errorf("workers=%d: got %d, want %d", workers, res.Matches, want)
		}
		if len(res.PerWorker) != workers {
			t.Errorf("workers=%d: %d worker stats", workers, len(res.PerWorker))
		}
	}
}

func TestTaskSplittingBalancesAndPreservesCount(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	store := kv.NewLocal(g)
	p := gen.Q(5)
	pl := bestPlan(t, p, g, plan.AllOptions)
	want := graph.RefCount(p, g, ord)

	cfgOff := Defaults(g)
	cfgOff.Tau = 0
	off, err := Run(pl, store, ord, g.Degree, cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	cfgOn := Defaults(g)
	cfgOn.Tau = 20
	on, err := Run(pl, store, ord, g.Degree, cfgOn)
	if err != nil {
		t.Fatal(err)
	}
	if off.Matches != want || on.Matches != want {
		t.Errorf("matches: off=%d on=%d want=%d", off.Matches, on.Matches, want)
	}
	if on.Tasks <= off.Tasks || on.SplitTasks == 0 {
		t.Errorf("splitting did not create subtasks: off=%d on=%d split=%d",
			off.Tasks, on.Tasks, on.SplitTasks)
	}
}

func TestCacheReducesCommunication(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	p := gen.Q(4)
	pl := bestPlan(t, p, g, plan.AllOptions)

	run := func(capacity int64) *Result {
		store := kv.NewLocal(g)
		cfg := Defaults(g)
		cfg.CacheBytes = capacity
		res, err := Run(pl, store, ord, g.Degree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noCache := run(0)
	fullCache := run(g.SizeBytes() * 2)
	if fullCache.DBQueries >= noCache.DBQueries {
		t.Errorf("cache did not reduce queries: %d vs %d", fullCache.DBQueries, noCache.DBQueries)
	}
	if fullCache.Matches != noCache.Matches {
		t.Errorf("cache changed result: %d vs %d", fullCache.Matches, noCache.Matches)
	}
	if fullCache.CacheHitRate <= 0 {
		t.Error("no cache hits recorded")
	}
	// With the cache larger than the graph, each machine fetches each
	// adjacency set at most once: queries ≤ workers × N (§V-A's tighter
	// bound O(p·|V(G)|)).
	bound := int64(4 * g.NumVertices())
	if fullCache.DBQueries > bound {
		t.Errorf("queries %d exceed p·N bound %d", fullCache.DBQueries, bound)
	}
}

func TestCollectTaskTimes(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	store := kv.NewLocal(g)
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	cfg := Defaults(g)
	cfg.CollectTaskTimes = true
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskTimes) != res.Tasks {
		t.Errorf("collected %d task times for %d tasks", len(res.TaskTimes), res.Tasks)
	}
	sorted := res.SortedTaskTimes()
	for i := 1; i < len(sorted); i++ {
		if sorted[i] > sorted[i-1] {
			t.Fatal("SortedTaskTimes not descending")
		}
	}
	if res.MaxWorkerBusy() <= 0 {
		t.Error("MaxWorkerBusy not recorded")
	}
}

func TestEmitCallbacks(t *testing.T) {
	g := gen.DemoDataGraph()
	ord := graph.NewTotalOrder(g)
	store := kv.NewLocal(g)
	p := gen.Triangle()
	want := graph.RefCount(p, g, ord)

	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	var mu sync.Mutex
	var got int64
	cfg := Defaults(g)
	cfg.Emit = func(f []int64) bool {
		mu.Lock()
		got++
		mu.Unlock()
		return true
	}
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || res.Matches != want {
		t.Errorf("emitted %d, result %d, want %d", got, res.Matches, want)
	}

	// Compressed: codes delivered via EmitCode, expandable to the same total.
	plc := bestPlan(t, p, g, plan.AllOptions)
	var expanded int64
	cfg2 := Defaults(g)
	cfg2.EmitCode = func(c *vcbc.Code) bool {
		mu.Lock()
		defer mu.Unlock()
		expanded += c.Count(plc.FreeOrderConstraints, ord)
		return true
	}
	res2, err := Run(plc, store, ord, g.Degree, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !plc.Compressed {
		t.Skip("triangle plan not compressed by the chosen order")
	}
	if expanded != want || res2.Matches != want {
		t.Errorf("compressed: expanded %d, result %d, want %d", expanded, res2.Matches, want)
	}
}

func TestRunOverTCPStore(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 150, EdgesPer: 3, Triad: 0.4, Seed: 33})
	ord := graph.NewTotalOrder(g)
	p := gen.Q(1)
	want := graph.RefCount(p, g, ord)
	pl := bestPlan(t, p, g, plan.AllOptions)

	servers, addrs, err := kv.ServeGraph(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	client, err := kv.Dial(addrs, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cfg := Defaults(g)
	cfg.Workers = 2
	cfg.ThreadsPerWorker = 3
	res, err := Run(pl, client, ord, g.Degree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Errorf("TCP run: got %d, want %d", res.Matches, want)
	}
	if client.Metrics().Queries() == 0 {
		t.Error("no remote queries recorded")
	}
	if res.DBQueries == 0 || res.BytesFetched == 0 {
		t.Error("communication accounting empty")
	}
}

func TestSequentialWorkersParity(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	store := kv.NewLocal(g)
	p := gen.Q(4)
	pl := bestPlan(t, p, g, plan.AllOptions)
	want := graph.RefCount(p, g, ord)

	seq := Defaults(g)
	seq.SequentialWorkers = true
	resSeq, err := Run(pl, store, ord, g.Degree, seq)
	if err != nil {
		t.Fatal(err)
	}
	conc := Defaults(g)
	resConc, err := Run(pl, store, ord, g.Degree, conc)
	if err != nil {
		t.Fatal(err)
	}
	if resSeq.Matches != want || resConc.Matches != want {
		t.Errorf("sequential %d, concurrent %d, want %d", resSeq.Matches, resConc.Matches, want)
	}
	if resSeq.Tasks != resConc.Tasks {
		t.Errorf("task counts differ: %d vs %d", resSeq.Tasks, resConc.Tasks)
	}
}

func TestLabeledClusterRequiresOracle(t *testing.T) {
	g := gen.DemoDataGraph()
	lg, err := g.WithVertexLabels(make([]int64, g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := graph.NewLabeledPattern("lt", 3, [][2]int64{{0, 1}, {0, 2}, {1, 2}}, []int64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Generate(p, []int{0, 1, 2}, plan.OptimizedUncompressed)
	if err != nil {
		t.Fatal(err)
	}
	ord := graph.NewTotalOrder(lg)
	cfg := Defaults(lg)
	if _, err := Run(pl, kv.NewLocal(lg), ord, lg.Degree, cfg); err == nil {
		t.Error("labeled plan without Config.LabelOf accepted")
	}
	cfg.LabelOf = lg.Label
	res, err := Run(pl, kv.NewLocal(lg), ord, lg.Degree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.RefCount(p, lg, ord); res.Matches != want {
		t.Errorf("labeled cluster run: %d, want %d", res.Matches, want)
	}
}

func TestRunConfigValidation(t *testing.T) {
	g := gen.DemoDataGraph()
	ord := graph.NewTotalOrder(g)
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	if _, err := Run(pl, kv.NewLocal(g), ord, g.Degree, Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

// degreePin is what a degree oracle closes over; its finalizer reports
// that the oracle became unreachable.
type degreePin struct{ g *graph.Graph }

// pinnedDegree returns g's degree oracle, closing over a degreePin whose
// finalizer closes released.
func pinnedDegree(g *graph.Graph, released chan struct{}) func(v int64) int {
	pin := &degreePin{g: g}
	runtime.SetFinalizer(pin, func(*degreePin) { close(released) })
	return func(v int64) int { return pin.g.Degree(v) }
}

// TestRunReleasesTheDegreeOracle: a plan without degree filters needs the
// degree oracle only to generate tasks, so the run must not hold it while
// tasks execute. graph.Graph.Degree, the usual oracle, pins the caller's
// whole graph; holding it shows up as peak RSS on the library path.
func TestRunReleasesTheDegreeOracle(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	if pl.DegreeFiltered {
		t.Fatal("plan is degree-filtered: the executors need the oracle")
	}
	released := make(chan struct{})
	var once sync.Once
	var freed atomic.Bool
	store := &recordingStore{Store: kv.NewLocal(g)}
	store.onCall = func([]int64) {
		once.Do(func() {
			for i := 0; i < 50 && !freed.Load(); i++ {
				runtime.GC()
				select {
				case <-released:
					freed.Store(true)
				case <-time.After(10 * time.Millisecond):
				}
			}
		})
	}
	if _, err := Run(pl, store, ord, pinnedDegree(g, released), Defaults(g)); err != nil {
		t.Fatal(err)
	}
	if !freed.Load() {
		t.Error("the degree oracle stayed reachable while tasks ran")
	}
}
