package sched

import (
	"sync"
	"testing"
	"time"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
)

// Tests for the lease-window prefetch: with MasterConfig.Prefetch set, a
// worker's dispatcher fetches the start vertices of each lease reply's
// tasks in one batch per partition, and then the union of their
// first-level candidates, before its threads see them.

// TestPrefetchOverTCPStores runs the deployed shape — workers dialing the
// storage nodes the master names, caches that hold the graph — with the
// batched data plane on. Without it every task opens with its own
// single-key trip, so trips exceed tasks; the start window alone left
// about half as many trips as tasks (the per-task ENU batches); with the
// frontier they are about an eighth here — a lease batch is a short
// window, 2×Threads tasks until the worker has measured a round trip.
func TestPrefetchOverTCPStores(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 1500, EdgesPer: 3, Triad: 0.1, Seed: 7})
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, graph.NewTotalOrder(g))

	servers, addrs, err := kv.ServeGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	cfg := masterFor(t, pl, g, obs.NewRegistry())
	cfg.StoreAddrs = addrs
	cfg.Prefetch, cfg.CompactAdjacency = true, true
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	wreg := obs.NewRegistry() // the workers' machines, summed
	var workers []*Worker
	for i := 0; i < 2; i++ {
		w, err := StartWorker(m.Addr(), WorkerConfig{Threads: 1, CacheBytes: 4 * g.SizeBytes(), Obs: wreg})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	res := waitResult(t, m)
	for _, w := range workers {
		if err := w.Wait(); err != nil {
			t.Errorf("worker %d exit: %v", w.ID(), err)
		}
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d", res.Matches, want)
	}
	if trips := wreg.Counter("cluster.db.trips").Value(); trips == 0 || trips >= int64(res.Tasks)/4 {
		t.Errorf("cluster.db.trips = %d for %d tasks, want under a quarter as many trips as tasks (and some)", trips, res.Tasks)
	}
	if n := wreg.Counter("source.prefetch.errors").Value(); n != 0 {
		t.Errorf("source.prefetch.errors = %d on healthy stores", n)
	}
}

// firstCallGate is a store whose first call — a worker's first lease
// window — blocks until release is closed; every call's keys are kept.
type firstCallGate struct {
	kv.Store
	release chan struct{}
	entered chan struct{}

	mu    sync.Mutex
	calls [][]int64
}

func (s *firstCallGate) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	s.mu.Lock()
	s.calls = append(s.calls, append([]int64(nil), vs...))
	first := len(s.calls) == 1
	s.mu.Unlock()
	if first {
		close(s.entered)
		<-s.release
	}
	return s.Store.GetAdjBatch(vs)
}

// TestPrefetchStolenTaskCostsItsWindowShare: a task stolen from a
// worker's backlog after its lease window was prefetched has cost that
// worker its start list in the window batch plus its first-level
// candidates in the frontier batch behind it, and that is all — the
// victim drops it unexecuted, the frontier holds nothing but the window's
// candidates, and with the lists cached nothing is fetched twice.
func TestPrefetchStolenTaskCostsItsWindowShare(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 120, EdgesPer: 3, Triad: 0.4, Seed: 3})
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	ord := graph.NewTotalOrder(g)
	want := graph.RefCount(p, g, ord)

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.Prefetch, cfg.CompactAdjacency = true, true
	cfg.LeaseDuration, cfg.HeartbeatEvery = time.Minute, 5*time.Millisecond
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The victim leases its first tasks and stalls fetching their window.
	gate := &firstCallGate{Store: kv.NewLocal(g), release: make(chan struct{}), entered: make(chan struct{})}
	vreg := obs.NewRegistry()
	victim, err := StartWorker(m.Addr(), WorkerConfig{Threads: 1, CacheBytes: 4 * g.SizeBytes(), Store: gate, Obs: vreg, Name: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	// The thief drains the pending queue, then steals from that backlog;
	// it leaves once the victim has heard of every steal, so that no
	// steal races the victim's restart.
	treg := obs.NewRegistry()
	thief, err := StartWorker(m.Addr(), WorkerConfig{Threads: 1, CacheBytes: 4 * g.SizeBytes(), Store: kv.NewLocal(g), Obs: treg, Name: "thief"})
	if err != nil {
		t.Fatal(err)
	}
	steals := reg.Counter("sched.steals")
	var stolen []int64 // start vertices of the stolen tasks
	stable := 0
	eventually(t, "the victim has heard of every steal", func() bool {
		victim.mu.Lock()
		defer victim.mu.Unlock()
		if n := steals.Value(); n == 0 || int64(len(victim.revoked)) != n {
			stable = 0
			return false
		}
		if stable++; stable < 20 {
			return false
		}
		m.mu.Lock()
		for id := range victim.revoked {
			stolen = append(stolen, m.tasks[id].Start)
		}
		m.mu.Unlock()
		return true
	})
	thief.Shutdown()
	close(gate.release)

	res := waitResult(t, m)
	for _, w := range []*Worker{victim, thief} {
		if err := w.Wait(); err != nil {
			t.Errorf("worker %d exit: %v", w.ID(), err)
		}
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d", res.Matches, want)
	}
	if res.DuplicateReports != 0 {
		t.Errorf("DuplicateReports = %d, want 0", res.DuplicateReports)
	}
	executed := vreg.Histogram("cluster.task.duration_ns").Count() + treg.Histogram("cluster.task.duration_ns").Count()
	if executed != int64(res.Tasks) {
		t.Errorf("%d task executions for %d tasks: a stolen task also ran on the victim", executed, res.Tasks)
	}
	window := map[int64]bool{}
	for _, v := range gate.calls[0] {
		window[v] = true
	}
	for _, v := range stolen {
		if !window[v] {
			t.Errorf("stolen task's start %d was not in the victim's lease window %v: the test stole nothing that was prefetched", v, gate.calls[0])
		}
	}
	// The victim's one thread saw no task before the window returned, so
	// the call behind the window batch is the window's frontier: the
	// triangle plan's first level is the start's ≻-neighbours.
	level := map[int64]bool{}
	for v := range window {
		for _, w := range g.Adj(v) {
			if ord.Less(v, w) && !window[w] {
				level[w] = true
			}
		}
	}
	if len(gate.calls) < 2 || len(level) == 0 {
		t.Fatalf("the victim made %d store calls and its window has %d uncached first-level candidates: the test sees no frontier", len(gate.calls), len(level))
	}
	frontier := map[int64]bool{}
	for _, v := range gate.calls[1] {
		frontier[v] = true
		if !level[v] {
			t.Errorf("the frontier batch %v fetched %d, no first-level candidate of the window %v", gate.calls[1], v, gate.calls[0])
		}
	}
	for _, v := range stolen {
		for _, w := range g.Adj(v) {
			if ord.Less(v, w) && !window[w] && !frontier[w] {
				t.Errorf("stolen task %d: its candidate %d is not in the frontier batch %v", v, w, gate.calls[1])
			}
		}
	}
	fetched := map[int64]int{}
	for _, call := range gate.calls {
		for _, v := range call {
			fetched[v]++
		}
	}
	for v, n := range fetched {
		if n != 1 {
			t.Errorf("the victim fetched vertex %d %d times, want once", v, n)
		}
	}
}
