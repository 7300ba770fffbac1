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

// Tests for the lease-window start-vertex prefetch: with
// MasterConfig.Prefetch set, a worker's dispatcher fetches the start
// vertices of each lease reply's tasks in one batch per partition before
// its threads see them.

// TestPrefetchOverTCPStores runs the deployed shape — workers dialing the
// storage nodes the master names, caches that hold the graph — with the
// batched data plane on. Without the lease window every task opens with
// its own single-key trip, so trips exceed tasks; with it they are about
// half of them here.
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
	if trips := wreg.Counter("cluster.db.trips").Value(); trips == 0 || trips >= int64(res.Tasks) {
		t.Errorf("cluster.db.trips = %d for %d tasks, want fewer trips than tasks (and some)", trips, res.Tasks)
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

// TestPrefetchStolenTaskCostsOneList: a task stolen from a worker's
// backlog after its lease window was prefetched has cost that worker the
// one start list in the window batch and nothing more — the victim drops
// it unexecuted, and with the list cached nothing is fetched twice.
func TestPrefetchStolenTaskCostsOneList(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 120, EdgesPer: 3, Triad: 0.4, Seed: 3})
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, graph.NewTotalOrder(g))

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
