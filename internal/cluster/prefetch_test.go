package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
)

// Tests for the task-window prefetch: the thread that pops the first task
// of each window of PrefetchBatchSize tasks fetches the whole window's
// start vertices in one batch per partition, then the union of its tasks'
// first-level candidates — the bounded frontier — the same way.

// recordingStore remembers the key set of every store call; onCall, when
// set, runs before the call is forwarded.
type recordingStore struct {
	kv.Store
	onCall func(vs []int64)

	mu    sync.Mutex
	calls [][]int64
}

func (s *recordingStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	s.mu.Lock()
	s.calls = append(s.calls, append([]int64(nil), vs...))
	s.mu.Unlock()
	if s.onCall != nil {
		s.onCall(vs)
	}
	return s.Store.GetAdjBatch(vs)
}

// prefetchConfig is one machine with the batched data plane on.
func prefetchConfig(threads int, cacheBytes int64) Config {
	return Config{
		Workers:          1,
		ThreadsPerWorker: threads,
		CacheBytes:       cacheBytes,
		Spec:             Spec{Prefetch: true, CompactAdjacency: true},
		Obs:              obs.NewRegistry(),
	}
}

// startWindowTripsN4000 is what the start-vertex window alone (PR 16)
// left of the store trips of TestWindowPrefetchOverTCP's N 4 000 run: one
// window batch per 64 tasks plus an ENU batch for every task with two or
// more candidates.
const startWindowTripsN4000 = 3256

// TestWindowPrefetchOverTCP is the benchmark's tri-lib-compact shape, in
// small and at its own size: two storage nodes, one machine, the cache a
// quarter of the graph. Trips stop scaling with tasks — the frontier
// replaces the per-task ENU batches the start window left — and
// prefetching must not cost communication. Two regressions are bounded
// here. Were a prefetched list's first read to earn it a second chance
// (the mark-consuming-read rule in cache.read), thousands of read-once
// lists would push the re-read hubs out: +14 % bytes at N 4 000. And a
// frontier with no budget installs a window's lists so early that it
// sweeps them out unread where a window is a large share of the cache:
// +4.9 % at N 4 000, +12 % at N 2 000 (exec.frontierBudgetDiv has the
// table). With both what remains is +1.3 % at N 4 000 and +2.3 % at
// N 14 000, where the budget barely bites and trips fall 28-fold.
func TestWindowPrefetchOverTCP(t *testing.T) {
	for _, tc := range []struct {
		n         int
		bytesDiv  int64 // on ≤ off + off/bytesDiv
		tripBound func(tasks int) int64
	}{
		{4000, 50, func(int) int64 { return startWindowTripsN4000 * 3 / 4 }},
		{14000, 33, func(tasks int) int64 { return int64(tasks) / 8 }},
	} {
		g := gen.PowerLaw(gen.PowerLawConfig{N: tc.n, EdgesPer: 3, Triad: 0.1, Seed: 7})
		ord := graph.NewTotalOrder(g)
		p := gen.Triangle()
		pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
		want := graph.RefCount(p, g, ord)

		servers, addrs, err := kv.ServeGraph(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		run := func(prefetch bool) *Result {
			t.Helper()
			client, err := kv.Dial(addrs, g.NumVertices())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			// One thread: the access order, and so every count, is exact.
			cfg := prefetchConfig(1, g.SizeBytes()/4)
			cfg.Prefetch = prefetch
			res, err := Run(pl, client, ord, g.Degree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Matches != want {
				t.Fatalf("N=%d prefetch=%v: %d matches, want %d", tc.n, prefetch, res.Matches, want)
			}
			return res
		}
		off, on := run(false), run(true)
		for _, s := range servers {
			s.Close()
		}
		if off.StoreTrips < int64(off.Tasks) {
			t.Fatalf("N=%d prefetch off: %d trips for %d tasks — the graph no longer misses on every start vertex, pick another", tc.n, off.StoreTrips, off.Tasks)
		}
		if bound := tc.tripBound(on.Tasks); on.StoreTrips >= bound {
			t.Errorf("N=%d prefetch on: %d store trips for %d tasks, want under %d", tc.n, on.StoreTrips, on.Tasks, bound)
		}
		if on.BytesFetched > off.BytesFetched+off.BytesFetched/tc.bytesDiv {
			t.Errorf("N=%d prefetch on fetched %d bytes, off %d: the window prefetch costs communication "+
				"(does the mark-consuming read in cache.read set the reference bit? is the frontier still bounded?)", tc.n, on.BytesFetched, off.BytesFetched)
		}
	}
}

// TestWindowPrefetchFetchesSharedStartOnce: the subtasks of a split
// vertex sit next to each other in the queue and share their start; a
// window asks for it once, and with a cache that holds the whole graph no
// key travels twice in the whole run.
func TestWindowPrefetchFetchesSharedStartOnce(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)

	store := &recordingStore{Store: kv.NewLocal(g)}
	cfg := prefetchConfig(1, 4*g.SizeBytes())
	cfg.Tau = 4
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.RefCount(p, g, ord); res.Matches != want {
		t.Fatalf("%d matches, want %d", res.Matches, want)
	}
	if res.SplitTasks == 0 {
		t.Fatal("τ=4 split nothing: the test exercises no shared start")
	}
	fetched := map[int64]int{}
	for _, call := range store.calls {
		for _, v := range call {
			fetched[v]++
		}
	}
	for v, n := range fetched {
		if n != 1 {
			t.Errorf("vertex %d fetched %d times, want once", v, n)
		}
	}
	if res.StoreTrips >= int64(res.Tasks) {
		t.Errorf("%d store trips for %d tasks, want fewer trips than tasks", res.StoreTrips, res.Tasks)
	}
}

// TestWindowPrefetchNeedsACache: with no cache there is nowhere to
// install a window, so none is fetched — every store call is one key.
func TestWindowPrefetchNeedsACache(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 150, EdgesPer: 3, Triad: 0.4, Seed: 53})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)

	store := &recordingStore{Store: kv.NewLocal(g)}
	res, err := Run(pl, store, ord, g.Degree, prefetchConfig(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.RefCount(p, g, ord); res.Matches != want {
		t.Fatalf("%d matches, want %d", res.Matches, want)
	}
	for _, call := range store.calls {
		if len(call) != 1 {
			t.Fatalf("a %d-key batch was fetched with CacheBytes = 0", len(call))
		}
	}
}

// TestWindowPrefetchCancelledMidWindow: cancellation landing while a
// window batch is at the store ends the run with the context's error,
// not with a task failure.
func TestWindowPrefetchCancelledMidWindow(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := &recordingStore{Store: kv.NewLocal(g)}
	store.onCall = func(vs []int64) {
		if len(vs) > 1 {
			cancel() // the first multi-key call of a run is its first window
		}
	}
	cfg := prefetchConfig(2, 4*g.SizeBytes())
	cfg.TaskRetries = 2
	_, err := RunContext(ctx, pl, store, ord, g.Degree, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := cfg.Obs.Counter("cluster.tasks.retried").Value(); n != 0 {
		t.Errorf("cluster.tasks.retried = %d after a cancellation, want 0", n)
	}
}

// TestWindowPrefetchFailureIsDropped: the store fails exactly the first
// window batch. That fetch is speculative — the error is counted and
// dropped, the demand path fetches what the window would have, and
// neither the match count nor the retry budget notices.
func TestWindowPrefetchFailureIsDropped(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 150, EdgesPer: 3, Triad: 0.4, Seed: 63})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)

	store := kv.NewFaulty(kv.NewLocal(g))
	store.FailOnceAt = 1 // the run's first query is the first key of the first window batch
	cfg := prefetchConfig(1, 4*g.SizeBytes())
	cfg.TaskRetries = 2
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatalf("a failed window prefetch failed the run: %v", err)
	}
	if want := graph.RefCount(p, g, ord); res.Matches != want {
		t.Errorf("%d matches, want %d", res.Matches, want)
	}
	if store.Injected() != 1 {
		t.Fatalf("%d failures injected, want 1", store.Injected())
	}
	if res.TasksRetried != 0 || cfg.Obs.Counter("cluster.tasks.retried").Value() != 0 {
		t.Errorf("the dropped prefetch error cost %d task retries, want 0", res.TasksRetried)
	}
	if n := cfg.Obs.Counter("source.prefetch.errors").Value(); n != 1 {
		t.Errorf("source.prefetch.errors = %d, want 1", n)
	}
}

// TestWindowFrontierOneBatchPerWindow: on a graph small enough that a
// window's frontier fits one batch, a one-thread run with a cache that
// holds the graph makes at most two store calls per window — starts, then
// frontier — never a per-task one, and no key travels twice.
func TestWindowFrontierOneBatchPerWindow(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 120, EdgesPer: 3, Triad: 0.4, Seed: 3})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)

	store := &recordingStore{Store: kv.NewLocal(g)}
	res, err := Run(pl, store, ord, g.Degree, prefetchConfig(1, 4*g.SizeBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.RefCount(p, g, ord); res.Matches != want {
		t.Fatalf("%d matches, want %d", res.Matches, want)
	}
	windows := (res.Tasks + 63) / 64
	if len(store.calls) > 2*windows || len(store.calls) <= windows {
		t.Errorf("%d store calls for %d windows, want a start batch and a frontier batch each: %v", len(store.calls), windows, store.calls)
	}
	if len(store.calls) < 2 || len(store.calls[0]) != 64 || len(store.calls[1]) < 2 {
		t.Fatalf("the first window's calls are %v, want its 64 starts and then its frontier", store.calls)
	}
	fetched := map[int64]int{}
	for _, call := range store.calls {
		for _, v := range call {
			fetched[v]++
		}
	}
	for v, n := range fetched {
		if n != 1 {
			t.Errorf("vertex %d fetched %d times, want once", v, n)
		}
	}
	if res.DBQueries != int64(len(fetched)) || res.StoreTrips != int64(len(store.calls)) {
		t.Errorf("run counted %d keys in %d trips, the store saw %d in %d", res.DBQueries, res.StoreTrips, len(fetched), len(store.calls))
	}
}

// TestWindowFrontierSiblingJoinsFlight: while the frontier batch is at
// the store, a sibling thread already running a task of the window misses
// on one of its keys; the miss joins the batch's flight, and the key is
// fetched and counted once.
func TestWindowFrontierSiblingJoinsFlight(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 120, EdgesPer: 3, Triad: 0.4, Seed: 3})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)

	cfg := prefetchConfig(2, 4*g.SizeBytes())
	joins := cfg.Obs.Counter("source.singleflight.joins")
	store := &recordingStore{Store: kv.NewLocal(g)}
	// No task has more first-level candidates than maxLevel, so a larger
	// batch is a window's: the first its starts, the second its frontier.
	maxLevel := 0
	for v := int64(0); v < int64(g.NumVertices()); v++ {
		n := 0
		for _, w := range g.Adj(v) {
			if ord.Less(v, w) {
				n++
			}
		}
		maxLevel = max(maxLevel, n)
	}
	var windowCalls, joinedFrontier atomic.Int64
	store.onCall = func(vs []int64) {
		if len(vs) <= maxLevel || windowCalls.Add(1) != 2 {
			return
		}
		// Hold the frontier batch until the sibling, whose start list the
		// first call installed, has walked into it.
		before := joins.Value()
		for deadline := time.Now().Add(5 * time.Second); joins.Value() == before && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		joinedFrontier.Store(joins.Value() - before)
	}
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.RefCount(p, g, ord); res.Matches != want {
		t.Fatalf("%d matches, want %d", res.Matches, want)
	}
	if joinedFrontier.Load() == 0 {
		t.Fatal("no demand miss joined the frontier batch's flight within 5 s")
	}
	fetched := map[int64]int{}
	var keys int64
	for _, call := range store.calls {
		keys += int64(len(call))
		for _, v := range call {
			fetched[v]++
		}
	}
	for v, n := range fetched {
		if n != 1 {
			t.Errorf("vertex %d fetched %d times, want once", v, n)
		}
	}
	if res.DBQueries != keys {
		t.Errorf("run counted %d fetched keys, the store served %d: a joined miss was counted too", res.DBQueries, keys)
	}
}

// TestWindowFrontierFailureIsDropped: the store fails exactly the first
// frontier batch. Like the window's start batch it is speculative — the
// error is counted and dropped, each task's own ENU batch fetches what the
// frontier would have, and neither the count nor the retry budget notices.
func TestWindowFrontierFailureIsDropped(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 150, EdgesPer: 3, Triad: 0.4, Seed: 63})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)

	store := kv.NewFaulty(kv.NewLocal(g))
	store.FailOnceAt = 65 // queries 1–64 are the first window's starts; 65 is the first key of its frontier batch
	cfg := prefetchConfig(1, 4*g.SizeBytes())
	cfg.TaskRetries = 2
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatalf("a failed frontier batch failed the run: %v", err)
	}
	if want := graph.RefCount(p, g, ord); res.Matches != want {
		t.Errorf("%d matches, want %d", res.Matches, want)
	}
	if store.Injected() != 1 {
		t.Fatalf("%d failures injected, want 1", store.Injected())
	}
	if res.TasksRetried != 0 || cfg.Obs.Counter("cluster.tasks.retried").Value() != 0 {
		t.Errorf("the dropped frontier error cost %d task retries, want 0", res.TasksRetried)
	}
	if n := cfg.Obs.Counter("source.prefetch.errors").Value(); n != 1 {
		t.Errorf("source.prefetch.errors = %d, want 1", n)
	}
}

// TestWindowFrontierCancelledMidFrontier: cancellation landing while the
// frontier batch is at the store ends the run with the context's error,
// not with a task failure.
func TestWindowFrontierCancelledMidFrontier(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := &recordingStore{Store: kv.NewLocal(g)}
	var multi atomic.Int64
	store.onCall = func(vs []int64) {
		if len(vs) > 1 && multi.Add(1) == 2 {
			cancel() // a run's second multi-key call is its first frontier batch
		}
	}
	cfg := prefetchConfig(2, 4*g.SizeBytes())
	cfg.TaskRetries = 2
	_, err := RunContext(ctx, pl, store, ord, g.Degree, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if multi.Load() < 2 {
		t.Fatal("the run never reached a frontier batch")
	}
	if n := cfg.Obs.Counter("cluster.tasks.retried").Value(); n != 0 {
		t.Errorf("cluster.tasks.retried = %d after a cancellation, want 0", n)
	}
}
