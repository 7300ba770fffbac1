package sched

import (
	"context"
	"encoding"
	"encoding/gob"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"benu/internal/cluster"
	"benu/internal/estimate"
	"benu/internal/exec"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
)

// TestWireTypesAreGobSafe walks every argument and reply type of the
// Sched RPC service. Gob drops an unexported field without an error, so
// the field is zero on the other side; and it cannot encode a func, a
// channel or an interface value whose type nobody registered. Types that
// encode themselves are exempt.
func TestWireTypesAreGobSafe(t *testing.T) {
	gobEncoder := reflect.TypeFor[gob.GobEncoder]()
	marshaler := reflect.TypeFor[encoding.BinaryMarshaler]()
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		ptr := reflect.PointerTo(typ)
		if ptr.Implements(gobEncoder) || ptr.Implements(marshaler) {
			return
		}
		switch typ.Kind() {
		case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s has kind %s, which gob cannot encode", path, typ.Kind())
		case reflect.Pointer:
			walk(typ.Elem(), path)
		case reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Map:
			walk(typ.Key(), path+"[key]")
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: gob drops it silently", path, f.Name)
					continue
				}
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	svc := reflect.TypeOf(&schedService{})
	methods := 0
	for i := range svc.NumMethod() {
		m := svc.Method(i)
		if m.Type.NumIn() != 3 || m.Type.NumOut() != 1 {
			continue // not an RPC method
		}
		methods++
		walk(m.Type.In(1), "Sched."+m.Name+" args")
		walk(m.Type.In(2), "Sched."+m.Name+" reply")
	}
	if methods == 0 {
		t.Error("schedService has no RPC methods: the walk checked nothing")
	}
}

// TestMain hooks the cross-process harness: when the binary is re-exec'd
// by SpawnWorkerProcess it runs a worker instead of the tests.
func TestMain(m *testing.M) {
	WorkerProcessMain()
	os.Exit(m.Run())
}

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

// masterFor builds a default MasterConfig for g/pl with a fresh registry.
func masterFor(t *testing.T, pl *plan.Plan, g *graph.Graph, reg *obs.Registry) MasterConfig {
	t.Helper()
	return MasterConfig{
		Plan:        pl,
		NumVertices: g.NumVertices(),
		Ord:         graph.NewTotalOrder(g),
		Degree:      g.Degree,
		TaskRetries: 3,
		Obs:         reg,
	}
}

func waitResult(t *testing.T, m *Master) *Result {
	t.Helper()
	res, err := m.Wait(nil)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return res
}

// TestNetRoundTrip runs the full wire protocol over loopback: master plus
// two in-process workers, counts checked against the reference enumerator.
func TestNetRoundTrip(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	for _, qi := range []int{1, 4} {
		p := gen.Q(qi)
		want := graph.RefCount(p, g, ord)
		for _, opts := range []plan.Options{plan.OptimizedUncompressed, plan.AllOptions} {
			pl := bestPlan(t, p, g, opts)
			reg := obs.NewRegistry()
			m, err := StartMaster("127.0.0.1:0", masterFor(t, pl, g, reg))
			if err != nil {
				t.Fatal(err)
			}
			// No store query is answered until both workers have joined:
			// otherwise worker 0 can finish the small job before worker 1
			// exists, and WorkersJoined is 1.
			gate := &gatedStore{Store: kv.NewLocal(g), release: make(chan struct{})}
			var workers []*Worker
			for i := 0; i < 2; i++ {
				w, err := StartWorker(m.Addr(), WorkerConfig{
					Threads: 2, Store: gate, Obs: reg,
					Name: fmt.Sprintf("w%d", i),
				})
				if err != nil {
					t.Fatal(err)
				}
				workers = append(workers, w)
			}
			close(gate.release)
			res := waitResult(t, m)
			for _, w := range workers {
				if err := w.Wait(); err != nil {
					t.Errorf("worker %d exit: %v", w.ID(), err)
				}
			}
			m.Close()
			if res.Matches != want {
				t.Errorf("q%d compressed=%v: got %d, want %d", qi, pl.Compressed, res.Matches, want)
			}
			if res.Tasks < g.NumVertices() {
				t.Errorf("q%d: only %d tasks for %d vertices", qi, res.Tasks, g.NumVertices())
			}
			if res.WorkersJoined != 2 {
				t.Errorf("q%d: WorkersJoined = %d, want 2", qi, res.WorkersJoined)
			}
			if got := reg.Counter("sched.tasks.completed").Value(); got != int64(res.Tasks) {
				t.Errorf("q%d: sched.tasks.completed = %d, want %d", qi, got, res.Tasks)
			}
		}
	}
}

// canonEmbeddings sorts a set of embeddings into a canonical order so
// runs with different schedules compare equal.
func canonEmbeddings(set [][]int64) {
	sort.Slice(set, func(i, j int) bool {
		a, b := set[i], set[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// runCollect runs pl over g on the networked control plane and returns
// the committed embedding set. restartMid kills one worker after the
// first commit and joins a replacement.
func runCollect(t *testing.T, pl *plan.Plan, g *graph.Graph, workerCounts int, restartMid bool) (*Result, [][]int64) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	var set [][]int64
	cfg.Emit = func(f []int64) bool {
		set = append(set, append([]int64(nil), f...))
		return true
	}
	if restartMid {
		cfg.LeaseDuration = 200 * time.Millisecond
	}
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var workers []*Worker
	for i := 0; i < workerCounts; i++ {
		w, err := StartWorker(m.Addr(), WorkerConfig{
			Threads: 2, Store: kv.NewLocal(g), Obs: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	if restartMid {
		// Wait for the first commit, then crash worker 0 and join a
		// replacement: the run must survive and count nothing twice.
		completed := reg.Counter("sched.tasks.completed")
		for completed.Value() == 0 {
			time.Sleep(time.Millisecond)
		}
		workers[0].Kill()
		w, err := StartWorker(m.Addr(), WorkerConfig{
			Threads: 2, Store: kv.NewLocal(g), Obs: reg, Name: "replacement",
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	res := waitResult(t, m)
	canonEmbeddings(set)
	return res, set
}

// TestNetDeterminismProperty is the cross-deployment property test: the
// canonicalized embedding set and match count are identical across
// worker counts and injected worker restarts, on seeded random graphs.
func TestNetDeterminismProperty(t *testing.T) {
	spec := gen.RandomGraphSpec{MinN: 24, MaxN: 72, Models: []string{"er-sparse", "powerlaw"}}
	seeds := []int64{3, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		g := gen.RandomDataGraph(spec, seed)
		ord := graph.NewTotalOrder(g)
		p := gen.Q(4)
		pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
		want := graph.RefCount(p, g, ord)

		var ref [][]int64
		for i, workers := range []int{1, 2, 4} {
			res, set := runCollect(t, pl, g, workers, false)
			if res.Matches != want || int64(len(set)) != want {
				t.Fatalf("seed %d workers=%d: matches=%d emitted=%d want=%d",
					seed, workers, res.Matches, len(set), want)
			}
			if i == 0 {
				ref = set
				continue
			}
			for j := range set {
				for k := range set[j] {
					if set[j][k] != ref[j][k] {
						t.Fatalf("seed %d workers=%d: embedding %d differs from 1-worker run", seed, workers, j)
					}
				}
			}
		}
		// Worker restart mid-run: same set, nothing lost or duplicated.
		res, set := runCollect(t, pl, g, 2, true)
		if res.Matches != want || int64(len(set)) != want {
			t.Fatalf("seed %d restart: matches=%d emitted=%d want=%d", seed, res.Matches, len(set), want)
		}
		for j := range set {
			for k := range set[j] {
				if set[j][k] != ref[j][k] {
					t.Fatalf("seed %d restart: embedding %d differs", seed, j)
				}
			}
		}
	}
}

// dialRaw opens a raw RPC client speaking the Sched protocol, for
// protocol-level tests that play misbehaving workers.
func dialRaw(t *testing.T, addr string) *rpc.Client {
	t.Helper()
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// report delivers attempts as one Sched.Report from a raw client.
func report(t *testing.T, c *rpc.Client, join JoinReply, attempts ...Attempt) ReportReply {
	t.Helper()
	var rep ReportReply
	if err := c.Call("Sched.Report", &ReportArgs{
		WorkerID: join.WorkerID, Epoch: join.Epoch, Attempts: attempts,
	}, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Stale && len(rep.Accepted) != len(attempts) {
		t.Fatalf("report of %d attempts acknowledged %d", len(attempts), len(rep.Accepted))
	}
	return rep
}

// TestStealProtocol drives the steal path deterministically with raw RPC
// clients: a straggler hoards the whole queue, an idle worker steals half
// its backlog, revocations flow back, and a duplicate completion of a
// stolen task is dropped by exactly-once dedup.
func TestStealProtocol(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 30, EdgesPer: 3, Triad: 0.4, Seed: 7})
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.LeaseBatch = 64
	cfg.LeaseDuration = time.Minute // no expiry interference
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	hoarder := dialRaw(t, m.Addr())
	var joinA JoinReply
	if err := hoarder.Call("Sched.Join", &JoinArgs{Name: "hoarder"}, &joinA); err != nil {
		t.Fatal(err)
	}
	var leaseA LeaseReply
	if err := hoarder.Call("Sched.Lease", &LeaseArgs{WorkerID: joinA.WorkerID, Max: 64, Epoch: joinA.Epoch}, &leaseA); err != nil {
		t.Fatal(err)
	}
	if len(leaseA.Tasks) == 0 {
		t.Fatal("hoarder leased no tasks")
	}
	// The hoarder reports exactly one task running; the rest is backlog.
	runningID := leaseA.Tasks[0].ID
	var hb HeartbeatReply
	if err := hoarder.Call("Sched.Heartbeat",
		&HeartbeatArgs{WorkerID: joinA.WorkerID, Running: []int64{runningID}, Epoch: joinA.Epoch}, &hb); err != nil {
		t.Fatal(err)
	}

	thief := dialRaw(t, m.Addr())
	var joinB JoinReply
	if err := thief.Call("Sched.Join", &JoinArgs{Name: "thief"}, &joinB); err != nil {
		t.Fatal(err)
	}
	var leaseB LeaseReply
	if err := thief.Call("Sched.Lease", &LeaseArgs{WorkerID: joinB.WorkerID, Max: 8, Epoch: joinB.Epoch}, &leaseB); err != nil {
		t.Fatal(err)
	}
	if len(leaseB.Tasks) == 0 {
		t.Fatal("thief stole nothing from the hoarder's backlog")
	}
	for _, wt := range leaseB.Tasks {
		if !wt.Stolen {
			t.Errorf("task %d handed to thief not marked Stolen", wt.ID)
		}
		if wt.ID == runningID {
			t.Errorf("stole task %d the hoarder reported running", wt.ID)
		}
	}
	if got := reg.Counter("sched.steals").Value(); got != int64(len(leaseB.Tasks)) {
		t.Errorf("sched.steals = %d, want %d", got, len(leaseB.Tasks))
	}

	// The hoarder's next heartbeat revokes the stolen tasks.
	if err := hoarder.Call("Sched.Heartbeat",
		&HeartbeatArgs{WorkerID: joinA.WorkerID, Running: []int64{runningID}, Epoch: joinA.Epoch}, &hb); err != nil {
		t.Fatal(err)
	}
	if len(hb.Revoked) != len(leaseB.Tasks) {
		t.Errorf("revoked %d tasks, want %d", len(hb.Revoked), len(leaseB.Tasks))
	}

	// Both report the same stolen task done: the thief (current holder)
	// commits; the hoarder's late completion is a dropped duplicate.
	stolen := leaseB.Tasks[0].ID
	done := Attempt{TaskID: stolen, Stats: exec.Stats{Matches: 5}}
	if !report(t, thief, joinB, done).Accepted[0] {
		t.Error("thief's completion of stolen task not accepted")
	}
	if report(t, hoarder, joinA, done).Accepted[0] {
		t.Error("duplicate completion accepted: match double-count")
	}
	if got := reg.Counter("sched.tasks.duplicate").Value(); got != 1 {
		t.Errorf("sched.tasks.duplicate = %d, want 1", got)
	}
	if got := reg.Counter("sched.tasks.completed").Value(); got != 1 {
		t.Errorf("sched.tasks.completed = %d, want 1", got)
	}
}

// TestDrainProtocol: Drain returns only once every worker has hung up,
// which a worker does on hearing Done — the finisher after its final
// ReportReply, while a parked bystander holds Drain at false until its
// next Lease tells it and it leaves.
func TestDrainProtocol(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 30, EdgesPer: 3, Triad: 0.4, Seed: 7})
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	cfg := masterFor(t, pl, g, obs.NewRegistry())
	cfg.LeaseBatch = 64
	cfg.LeaseDuration = time.Minute
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	finisher := dialRaw(t, m.Addr())
	bystander := dialRaw(t, m.Addr())
	var joinA, joinB JoinReply
	if err := finisher.Call("Sched.Join", &JoinArgs{Name: "finisher"}, &joinA); err != nil {
		t.Fatal(err)
	}
	if err := bystander.Call("Sched.Join", &JoinArgs{Name: "bystander"}, &joinB); err != nil {
		t.Fatal(err)
	}

	// The finisher leases and completes every task; its last ReportReply
	// carries Done=true, and it leaves.
	for {
		var lease LeaseReply
		if err := finisher.Call("Sched.Lease", &LeaseArgs{WorkerID: joinA.WorkerID, Max: 64, Epoch: joinA.Epoch}, &lease); err != nil {
			t.Fatal(err)
		}
		if lease.Done {
			break
		}
		if len(lease.Tasks) == 0 {
			t.Fatal("live run handed out no tasks")
		}
		attempts := make([]Attempt, len(lease.Tasks))
		for i, wt := range lease.Tasks {
			attempts[i].TaskID = wt.ID
		}
		if report(t, finisher, joinA, attempts...).Done {
			break
		}
	}
	if _, err := m.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	finisher.Close()

	// The bystander has not spoken since the run finished: it would see
	// an EOF if the master closed now, and Drain says so.
	if m.Drain(50 * time.Millisecond) {
		t.Fatal("Drain reported every worker gone while the bystander is still parked")
	}
	var lease LeaseReply
	if err := bystander.Call("Sched.Lease", &LeaseArgs{WorkerID: joinB.WorkerID, Epoch: joinB.Epoch}, &lease); err != nil {
		t.Fatal(err)
	}
	if !lease.Done {
		t.Fatal("post-finish Lease did not report Done")
	}
	bystander.Close()
	if !m.Drain(time.Second) {
		t.Fatal("Drain still false after every worker heard Done and hung up")
	}
}

// TestLeaseExpiryProtocol drives lease expiry deterministically: a worker
// joins, leases tasks, and goes silent. The heartbeat breaker opens, the
// worker is fenced, its tasks are re-queued, and a live worker finishes
// the run with exactly-once counts.
func TestLeaseExpiryProtocol(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 60, EdgesPer: 3, Triad: 0.4, Seed: 9})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, ord)

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.LeaseDuration = 100 * time.Millisecond
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The silent worker leases a batch and never speaks again.
	silent := dialRaw(t, m.Addr())
	var join JoinReply
	if err := silent.Call("Sched.Join", &JoinArgs{Name: "silent"}, &join); err != nil {
		t.Fatal(err)
	}
	var lease LeaseReply
	if err := silent.Call("Sched.Lease", &LeaseArgs{WorkerID: join.WorkerID, Max: 16, Epoch: join.Epoch}, &lease); err != nil {
		t.Fatal(err)
	}
	if len(lease.Tasks) == 0 {
		t.Fatal("silent worker leased no tasks")
	}
	// Report every leased task as running so nothing is stealable: the
	// only way the run can finish is through lease expiry.
	running := make([]int64, len(lease.Tasks))
	for i, wt := range lease.Tasks {
		running[i] = wt.ID
	}
	var hb HeartbeatReply
	if err := silent.Call("Sched.Heartbeat", &HeartbeatArgs{WorkerID: join.WorkerID, Running: running, Epoch: join.Epoch}, &hb); err != nil {
		t.Fatal(err)
	}

	w, err := StartWorker(m.Addr(), WorkerConfig{Threads: 2, Store: kv.NewLocal(g), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, m)
	if err := w.Wait(); err != nil {
		t.Errorf("live worker exit: %v", err)
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d (lost or duplicated embeddings)", res.Matches, want)
	}
	if res.LeasesExpired < len(lease.Tasks) {
		t.Errorf("LeasesExpired = %d, want ≥ %d", res.LeasesExpired, len(lease.Tasks))
	}
	if res.TasksRetried < len(lease.Tasks) {
		t.Errorf("TasksRetried = %d, want ≥ %d", res.TasksRetried, len(lease.Tasks))
	}
	if got := reg.Counter("sched.lease.expired").Value(); got != int64(res.LeasesExpired) {
		t.Errorf("sched.lease.expired = %d, Result says %d", got, res.LeasesExpired)
	}
	if got := reg.Counter("cluster.tasks.retried").Value(); got != int64(res.TasksRetried) {
		t.Errorf("cluster.tasks.retried = %d, Result says %d", got, res.TasksRetried)
	}
	if got := reg.Counter("cluster.tasks.failed").Value(); got != 0 {
		t.Errorf("cluster.tasks.failed = %d, want 0", got)
	}

	// The fenced worker is told so on its next call.
	var after LeaseReply
	if err := silent.Call("Sched.Lease", &LeaseArgs{WorkerID: join.WorkerID, Max: 1, Epoch: join.Epoch}, &after); err != nil {
		t.Fatal(err)
	}
	if !after.Fenced {
		t.Error("silent worker not fenced after lease expiry")
	}
}

// slowStore adds fixed latency to every adjacency query, stretching a
// run so chaos tests can reliably crash a worker mid-task.
type slowStore struct {
	kv.Store
	delay time.Duration
}

func (s slowStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	time.Sleep(s.delay)
	return s.Store.GetAdjBatch(vs)
}

// TestNetChaosKillWorkerMidTask is the end-to-end chaos test: a real
// worker is crashed (connection severed, nothing reported — kv.Server
// Close crash semantics) while holding leases mid-run; lease expiry
// re-executes its tasks elsewhere and the final counts are exact.
func TestNetChaosKillWorkerMidTask(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	p := gen.Q(5)
	pl := bestPlan(t, p, g, plan.AllOptions)
	want := graph.RefCount(p, g, ord)

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.LeaseDuration = 200 * time.Millisecond
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	store := slowStore{kv.NewLocal(g), 200 * time.Microsecond}
	victim, err := StartWorker(m.Addr(), WorkerConfig{Threads: 4, Store: store, Obs: reg, Name: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the victim has committed work (so it demonstrably ran
	// tasks) and heartbeated a running set (so the master holds leases it
	// cannot hand to a thief), then crash it.
	completed := reg.Counter("sched.tasks.completed")
	heartbeats := reg.Counter("sched.heartbeats")
	for completed.Value() == 0 || heartbeats.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	victim.Kill()

	survivor, err := StartWorker(m.Addr(), WorkerConfig{Threads: 2, Store: store, Obs: reg, Name: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, m)
	if err := survivor.Wait(); err != nil {
		t.Errorf("survivor exit: %v", err)
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d (lost or duplicated embeddings after crash)", res.Matches, want)
	}
	if res.LeasesExpired == 0 {
		t.Error("victim crashed mid-run but no lease expired")
	}
	if res.TasksRetried == 0 {
		t.Error("no task was re-executed after the crash")
	}
	if got := reg.Counter("sched.lease.expired").Value(); got != int64(res.LeasesExpired) {
		t.Errorf("sched.lease.expired = %d, Result says %d", got, res.LeasesExpired)
	}
	if got := reg.Counter("cluster.tasks.retried").Value(); got != int64(res.TasksRetried) {
		t.Errorf("cluster.tasks.retried = %d, Result says %d", got, res.TasksRetried)
	}
	if err := victim.Wait(); err == nil {
		t.Error("killed worker reported a clean exit")
	}
}

// TestNetMultiProcess runs the genuine multi-process deployment: the
// master and kv storage nodes in this process, two workers re-exec'd as
// separate OS processes dialing both over loopback TCP.
func TestNetMultiProcess(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 150, EdgesPer: 3, Triad: 0.4, Seed: 5})
	ord := graph.NewTotalOrder(g)
	p := gen.Q(4)
	pl := bestPlan(t, p, g, plan.AllOptions)
	want := graph.RefCount(p, g, ord)

	servers, addrs, err := kv.ServeGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.StoreAddrs = addrs
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var procs []*WorkerProc
	for i := 0; i < 2; i++ {
		proc, err := SpawnWorkerProcess(m.Addr(), 2)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, proc)
	}
	res := waitResult(t, m)
	for i, proc := range procs {
		if err := proc.WaitTimeout(10 * time.Second); err != nil {
			t.Errorf("worker process %d: %v", i, err)
		}
	}
	if res.Matches != want {
		t.Errorf("multi-process matches = %d, want %d", res.Matches, want)
	}
	if res.WorkersJoined != 2 {
		t.Errorf("WorkersJoined = %d, want 2", res.WorkersJoined)
	}
	if res.Stats.DBQueries == 0 {
		t.Error("workers reported no DB queries: did they really dial the storage nodes?")
	}
}

// TestLeasePickPolicy unit-tests the locality-aware lease selection:
// LIFO within each class, local tasks first, work-conserving fill, and
// order-preserving removal from the stack.
func TestLeasePickPolicy(t *testing.T) {
	isEven := func(task int) bool { return task%2 == 0 }

	// No locality info: plain LIFO pop.
	chosen, rest := leasePick([]int{1, 2, 3, 4}, 2, nil)
	if !reflect.DeepEqual(chosen, []int{4, 3}) || !reflect.DeepEqual(rest, []int{1, 2}) {
		t.Errorf("nil local: chosen %v rest %v", chosen, rest)
	}

	// Local tasks picked first, LIFO within the class; the stack keeps
	// its order minus the chosen entries.
	chosen, rest = leasePick([]int{1, 2, 3, 4, 5}, 2, isEven)
	if !reflect.DeepEqual(chosen, []int{4, 2}) {
		t.Errorf("local-first: chosen %v, want [4 2]", chosen)
	}
	if !reflect.DeepEqual(rest, []int{1, 3, 5}) {
		t.Errorf("local-first: rest %v, want [1 3 5]", rest)
	}

	// Work-conserving: local supply short of max tops up with the most
	// recent non-local tasks.
	chosen, rest = leasePick([]int{1, 2, 3, 5, 7}, 3, isEven)
	if !reflect.DeepEqual(chosen, []int{2, 7, 5}) {
		t.Errorf("fill: chosen %v, want [2 7 5]", chosen)
	}
	if !reflect.DeepEqual(rest, []int{1, 3}) {
		t.Errorf("fill: rest %v, want [1 3]", rest)
	}

	// No local tasks at all: degenerates to LIFO.
	chosen, _ = leasePick([]int{1, 3, 5}, 2, isEven)
	if !reflect.DeepEqual(chosen, []int{5, 3}) {
		t.Errorf("no locals: chosen %v, want [5 3]", chosen)
	}

	// max ≥ stack drains everything.
	chosen, rest = leasePick([]int{1, 2}, 10, isEven)
	if len(chosen) != 2 || len(rest) != 0 {
		t.Errorf("drain: chosen %v rest %v", chosen, rest)
	}

	// Empty and non-positive max are no-ops.
	if c, r := leasePick(nil, 4, isEven); c != nil || r != nil {
		t.Errorf("empty stack: %v %v", c, r)
	}
	if c, _ := leasePick([]int{1}, 0, isEven); c != nil {
		t.Errorf("max=0: %v", c)
	}
}

// TestLeaseLocalityProtocol drives locality through the wire protocol: a
// worker that joins advertising partition 0 of 2 receives even-start
// tasks while they last, and still receives odd-start ones afterwards
// (work conservation).
func TestLeaseLocalityProtocol(t *testing.T) {
	g := testGraph()
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	cfg := masterFor(t, pl, g, obs.NewRegistry())
	cfg.LeaseBatch = 16
	cfg.LeaseDuration = time.Minute
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const parts = 2
	c := dialRaw(t, m.Addr())
	var join JoinReply
	if err := c.Call("Sched.Join", &JoinArgs{
		Name: "local0", StoreParts: []int{0}, StoreNumParts: parts,
	}, &join); err != nil {
		t.Fatal(err)
	}
	var leased []WireTask
	for {
		var lease LeaseReply
		if err := c.Call("Sched.Lease", &LeaseArgs{WorkerID: join.WorkerID, Max: 16, Epoch: join.Epoch}, &lease); err != nil {
			t.Fatal(err)
		}
		if len(lease.Tasks) == 0 {
			break
		}
		leased = append(leased, lease.Tasks...)
	}
	if len(leased) == 0 {
		t.Fatal("no tasks leased")
	}
	// Count the local tasks in the whole queue, then check the lease
	// order served every one of them before any non-local task.
	locals := 0
	for _, wt := range leased {
		if wt.Task.Start%parts == 0 {
			locals++
		}
	}
	if locals == 0 || locals == len(leased) {
		t.Fatalf("degenerate task mix: %d local of %d", locals, len(leased))
	}
	for i, wt := range leased {
		isLocal := wt.Task.Start%parts == 0
		if i < locals && !isLocal {
			t.Fatalf("lease position %d is non-local (start %d) while local tasks remained",
				i, wt.Task.Start)
		}
		if i >= locals && isLocal {
			t.Fatalf("local task (start %d) leased at position %d, after non-local ones",
				wt.Task.Start, i)
		}
	}
}

// TestWorkerPublishesCacheAndWireSeries pins observability parity with
// cluster.Run: when a worker finishes, its registry carries the machine's
// cache.* and cluster.db.* totals, and every executor DBQ is accounted
// for as exactly one cache hit or miss.
func TestWorkerPublishesCacheAndWireSeries(t *testing.T) {
	g := testGraph()
	pl := bestPlan(t, gen.Q(4), g, plan.OptimizedUncompressed)
	m, err := StartMaster("127.0.0.1:0", masterFor(t, pl, g, obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	wreg := obs.NewRegistry()
	w, err := StartWorker(m.Addr(), WorkerConfig{
		Threads: 2, Store: kv.NewLocal(g), Obs: wreg,
		CacheBytes: g.SizeBytes() / 4, // under pressure, so evictions show
	})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, m)
	if err := w.Wait(); err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	for _, name := range []string{"cache.hits", "cache.misses", "cache.evictions",
		"cluster.db.queries", "cluster.db.trips", "cluster.db.bytes_fetched"} {
		if wreg.Counter(name).Value() == 0 {
			t.Errorf("%s = 0 after a run", name)
		}
	}
	for _, name := range []string{"cache.bytes", "cache.entries"} {
		if wreg.Gauge(name).Value() == 0 {
			t.Errorf("%s = 0 after a run", name)
		}
	}
	reads := wreg.Counter("cache.hits").Value() + wreg.Counter("cache.misses").Value()
	if dbq := wreg.Counter("exec.instr.dbq").Value(); reads != dbq {
		t.Errorf("cache hits+misses = %d, executors ran %d DBQs", reads, dbq)
	}
	if reads != res.Stats.DBQueries {
		t.Errorf("cache hits+misses = %d, master committed %d DBQs", reads, res.Stats.DBQueries)
	}
	if got, want := wreg.Counter("cluster.db.queries").Value(), wreg.Counter("cache.misses").Value(); got > want {
		t.Errorf("cluster.db.queries = %d exceeds cache.misses = %d", got, want)
	}
}

// TestWorkerTakesTriangleCacheFromSpec: a worker sizes its executors'
// triangle caches from the Spec in the master's Join reply. On a plan
// with a TRC instruction, a master with TriangleCacheEntries 0 leaves
// the workers' exec.tricache.hits and misses at 0, and the simulated
// cluster's default size makes both non-zero.
func TestWorkerTakesTriangleCacheFromSpec(t *testing.T) {
	g := testGraph()
	pl := bestPlan(t, gen.Q(6), g, plan.OptimizedUncompressed)
	trc := false
	for _, in := range pl.Instrs {
		trc = trc || in.Op == plan.OpTRC
	}
	if !trc {
		t.Fatal("plan has no TRC instruction: the triangle cache is never consulted")
	}
	want := graph.RefCount(gen.Q(6), g, graph.NewTotalOrder(g))
	for _, entries := range []int{0, cluster.Defaults(g).TriangleCacheEntries} {
		cfg := masterFor(t, pl, g, obs.NewRegistry())
		cfg.TriangleCacheEntries = entries
		m, err := StartMaster("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		wreg := obs.NewRegistry()
		w, err := StartWorker(m.Addr(), WorkerConfig{Threads: 2, Store: kv.NewLocal(g), Obs: wreg})
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		res := waitResult(t, m)
		if err := w.Wait(); err != nil {
			t.Errorf("entries %d: worker exit: %v", entries, err)
		}
		m.Close()
		if res.Matches != want {
			t.Errorf("entries %d: matches = %d, want %d", entries, res.Matches, want)
		}
		hits, misses := wreg.Counter("exec.tricache.hits").Value(), wreg.Counter("exec.tricache.misses").Value()
		if entries == 0 && (hits != 0 || misses != 0) {
			t.Errorf("TriangleCacheEntries 0: exec.tricache.hits=%d misses=%d, want both 0", hits, misses)
		}
		if entries > 0 && (hits == 0 || misses == 0) {
			t.Errorf("TriangleCacheEntries %d: exec.tricache.hits=%d misses=%d, want both non-zero", entries, hits, misses)
		}
	}
}

// joinOnly is a master that answers Join with a fixed reply.
type joinOnly struct{ reply JoinReply }

func (j *joinOnly) Join(_ *JoinArgs, reply *JoinReply) error {
	*reply = j.reply
	return nil
}

// TestWorkerRefusesJoinVertexCount: an identity order crosses the wire
// as no ranks, so nothing in the payload bounds |V| any more; a worker
// refuses a count it could not hold, and one below 1, before sizing any
// per-vertex state by it.
func TestWorkerRefusesJoinVertexCount(t *testing.T) {
	g := graph.Relabel(testGraph())
	m, err := StartMaster("127.0.0.1:0", masterFor(t, bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed), g, obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var join JoinReply
	if err := dialRaw(t, m.Addr()).Call("Sched.Join", &JoinArgs{Name: "probe"}, &join); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, graph.MaxEdgeListVertexID + 2, 1 << 40} {
		fake := &joinOnly{reply: join}
		fake.reply.NumVertices = n
		srv := rpc.NewServer()
		if err := srv.RegisterName("Sched", fake); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Accept(ln)
		w, err := StartWorker(ln.Addr().String(), WorkerConfig{Name: "w", Threads: 1})
		ln.Close()
		if err == nil {
			w.Close()
			t.Fatalf("worker accepted a join of %d vertices", n)
		}
		if !strings.Contains(err.Error(), "vertices") {
			t.Errorf("%d vertices: %v, want the vertex count refused", n, err)
		}
	}
}
