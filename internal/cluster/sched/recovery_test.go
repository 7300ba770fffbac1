package sched

import (
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"benu/internal/cluster/sched/journal"
	"benu/internal/exec"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/resilience"
)

// chaosRetry is the worker retry policy the recovery tests run under:
// generous attempts with short backoff, so a worker outlives a master
// restart that takes tens of milliseconds without stretching the test.
func chaosRetry() *resilience.Policy {
	return &resilience.Policy{
		MaxAttempts: 200,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  25 * time.Millisecond,
		Multiplier:  2,
	}
}

// collectInto returns an Emit callback appending embeddings to *set.
func collectInto(set *[][]int64) func([]int64) bool {
	return func(f []int64) bool {
		*set = append(*set, append([]int64(nil), f...))
		return true
	}
}

// TestJournalMasterRecovery is the kill-master chaos test: crash the
// master mid-run, restart it on the same address and journal, and the
// resumed run must produce the bit-identical embedding set and
// exactly-once task accounting of an uninterrupted run. A third
// restart after completion must replay to a finished run idempotently.
func TestJournalMasterRecovery(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 80, EdgesPer: 3, Triad: 0.4, Seed: 13})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, ord)

	// Reference: one uninterrupted, journal-less run.
	var cleanSet [][]int64
	cleanCfg := masterFor(t, pl, g, obs.NewRegistry())
	cleanCfg.Emit = collectInto(&cleanSet)
	mc, err := StartMaster("127.0.0.1:0", cleanCfg)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := StartWorker(mc.Addr(), WorkerConfig{Threads: 2, Store: kv.NewLocal(g), Obs: cleanCfg.Obs})
	if err != nil {
		t.Fatal(err)
	}
	cleanRes := waitResult(t, mc)
	if err := wc.Wait(); err != nil {
		t.Fatalf("clean worker exit: %v", err)
	}
	mc.Close()
	if cleanRes.Matches != want {
		t.Fatalf("clean run: matches = %d, want %d", cleanRes.Matches, want)
	}
	canonEmbeddings(cleanSet)

	// Journaled run, incarnation 1: crash after some commits.
	jpath := filepath.Join(t.TempDir(), "job.journal")
	reg1 := obs.NewRegistry()
	var set1 [][]int64
	cfg1 := masterFor(t, pl, g, reg1)
	cfg1.JournalPath = jpath
	cfg1.Emit = collectInto(&set1)
	m1, err := StartMaster("127.0.0.1:0", cfg1)
	if err != nil {
		t.Fatal(err)
	}
	addr := m1.Addr()
	if m1.res.Epoch != 1 {
		t.Fatalf("fresh journaled master at epoch %d, want 1", m1.res.Epoch)
	}

	wreg := obs.NewRegistry()
	store := slowStore{kv.NewLocal(g), 300 * time.Microsecond}
	w, err := StartWorker(addr, WorkerConfig{
		Threads: 2, Store: store, Obs: wreg, Retry: chaosRetry(), Name: "survivor",
	})
	if err != nil {
		t.Fatal(err)
	}

	committed := reg1.Counter("sched.tasks.completed")
	for committed.Value() < 3 {
		time.Sleep(time.Millisecond)
	}
	// SIGKILL-equivalent for an in-process master: every committed
	// completion is already fsync'd, and Close writes nothing further —
	// the journal is exactly what a kill -9 would have left.
	m1.Close()

	// Incarnation 2: same address, same journal, fresh collector. Its
	// emissions must be the full set — replayed commits re-emitted,
	// live commits as they land.
	reg2 := obs.NewRegistry()
	var set2 [][]int64
	cfg2 := masterFor(t, pl, g, reg2)
	cfg2.JournalPath = jpath
	cfg2.Emit = collectInto(&set2)
	m2, err := StartMaster(addr, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	res2 := waitResult(t, m2)
	if err := w.Wait(); err != nil {
		t.Errorf("worker exit after master restart: %v", err)
	}
	if res2.Epoch != 2 {
		t.Errorf("resumed master at epoch %d, want 2", res2.Epoch)
	}
	if res2.Replayed == 0 {
		t.Error("resumed master replayed nothing despite pre-crash commits")
	}
	if got := reg2.Counter("sched.journal.replayed").Value(); got != int64(res2.Replayed) {
		t.Errorf("sched.journal.replayed = %d, Result says %d", got, res2.Replayed)
	}
	if got := reg2.Gauge("sched.epoch").Value(); got != 2 {
		t.Errorf("sched.epoch gauge = %v, want 2", got)
	}
	// Exactly-once accounting: replayed + live commits cover every task
	// exactly once.
	live := reg2.Counter("sched.tasks.completed").Value()
	if int(live)+res2.Replayed != res2.Tasks {
		t.Errorf("replayed %d + live %d != tasks %d", res2.Replayed, live, res2.Tasks)
	}
	if res2.Matches != want {
		t.Errorf("resumed run: matches = %d, want %d", res2.Matches, want)
	}
	canonEmbeddings(set2)
	if !reflect.DeepEqual(set2, cleanSet) {
		t.Errorf("resumed run emitted %d embeddings differing from the clean run's %d",
			len(set2), len(cleanSet))
	}
	if got := wreg.Counter("sched.worker.rejoins").Value(); got == 0 {
		t.Error("worker survived a master restart without rejoining")
	}

	// Incarnation 3: the journal holds every completion, so the run is
	// done on arrival — no workers needed, same bit-identical output.
	var set3 [][]int64
	cfg3 := masterFor(t, pl, g, obs.NewRegistry())
	cfg3.JournalPath = jpath
	cfg3.Emit = collectInto(&set3)
	m3, err := StartMaster("127.0.0.1:0", cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	res3 := waitResult(t, m3)
	if res3.Epoch != 3 {
		t.Errorf("third incarnation at epoch %d, want 3", res3.Epoch)
	}
	if res3.Replayed != res3.Tasks {
		t.Errorf("post-completion restart replayed %d of %d tasks", res3.Replayed, res3.Tasks)
	}
	if res3.Matches != want {
		t.Errorf("post-completion restart: matches = %d, want %d", res3.Matches, want)
	}
	canonEmbeddings(set3)
	if !reflect.DeepEqual(set3, cleanSet) {
		t.Error("post-completion restart re-emitted a different embedding set")
	}
}

// TestJournalSpecMismatch: a journal written for one job must refuse to
// resume a different one — silently mixing two runs' completions would
// corrupt both.
func TestJournalSpecMismatch(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 40, EdgesPer: 3, Triad: 0.4, Seed: 3})
	jpath := filepath.Join(t.TempDir(), "job.journal")

	cfg := masterFor(t, bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed), g, obs.NewRegistry())
	cfg.JournalPath = jpath
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()

	other := masterFor(t, bestPlan(t, gen.Q(4), g, plan.OptimizedUncompressed), g, obs.NewRegistry())
	other.JournalPath = jpath
	if m2, err := StartMaster("127.0.0.1:0", other); err == nil {
		m2.Close()
		t.Fatal("master resumed a journal belonging to a different job")
	}
}

// TestEpochStaleFencing: after a master restart, calls carrying the old
// incarnation's epoch are rejected idempotently — even though the old
// WorkerID may collide with a live worker of the new incarnation — and
// the run's accounting stays exact.
func TestEpochStaleFencing(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 60, EdgesPer: 3, Triad: 0.4, Seed: 17})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, ord)
	jpath := filepath.Join(t.TempDir(), "job.journal")

	cfg1 := masterFor(t, pl, g, obs.NewRegistry())
	cfg1.JournalPath = jpath
	m1, err := StartMaster("127.0.0.1:0", cfg1)
	if err != nil {
		t.Fatal(err)
	}
	// An epoch-1 worker joins and leases, then the master dies.
	old := dialRaw(t, m1.Addr())
	var oldJoin JoinReply
	if err := old.Call("Sched.Join", &JoinArgs{Name: "old-incarnation"}, &oldJoin); err != nil {
		t.Fatal(err)
	}
	var oldLease LeaseReply
	if err := old.Call("Sched.Lease", &LeaseArgs{WorkerID: oldJoin.WorkerID, Max: 4, Epoch: oldJoin.Epoch}, &oldLease); err != nil {
		t.Fatal(err)
	}
	if len(oldLease.Tasks) == 0 {
		t.Fatal("epoch-1 worker leased nothing")
	}
	m1.Close()

	reg2 := obs.NewRegistry()
	cfg2 := masterFor(t, pl, g, reg2)
	cfg2.JournalPath = jpath
	m2, err := StartMaster("127.0.0.1:0", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	// A new-incarnation worker joins first, so it holds WorkerID 0 —
	// the very ID the old client will present with its stale epoch.
	fresh := dialRaw(t, m2.Addr())
	var freshJoin JoinReply
	if err := fresh.Call("Sched.Join", &JoinArgs{Name: "fresh"}, &freshJoin); err != nil {
		t.Fatal(err)
	}
	if freshJoin.WorkerID != oldJoin.WorkerID {
		t.Fatalf("test premise broken: fresh WorkerID %d != old %d", freshJoin.WorkerID, oldJoin.WorkerID)
	}
	if freshJoin.Epoch != 2 {
		t.Fatalf("restarted master at epoch %d, want 2", freshJoin.Epoch)
	}

	// Every stale-epoch call is rejected without touching state.
	stale := dialRaw(t, m2.Addr())
	var lr LeaseReply
	if err := stale.Call("Sched.Lease", &LeaseArgs{WorkerID: oldJoin.WorkerID, Max: 8, Epoch: oldJoin.Epoch}, &lr); err != nil {
		t.Fatal(err)
	}
	if !lr.Stale || len(lr.Tasks) != 0 {
		t.Errorf("stale Lease not fenced: %+v", lr)
	}
	rr := report(t, stale, oldJoin, Attempt{
		TaskID: oldLease.Tasks[0].ID,
		Stats:  exec.Stats{Matches: 1 << 30}, // would wreck the count if committed
	})
	if !rr.Stale || len(rr.Accepted) != 0 {
		t.Errorf("stale Report not fenced: %+v", rr)
	}
	var hr HeartbeatReply
	if err := stale.Call("Sched.Heartbeat", &HeartbeatArgs{WorkerID: oldJoin.WorkerID, Epoch: oldJoin.Epoch}, &hr); err != nil {
		t.Fatal(err)
	}
	if !hr.Stale {
		t.Errorf("stale Heartbeat not fenced: %+v", hr)
	}
	if got := reg2.Counter("sched.epoch.stale").Value(); got != 3 {
		t.Errorf("sched.epoch.stale = %d, want 3", got)
	}

	// The run still completes with exact accounting.
	w, err := StartWorker(m2.Addr(), WorkerConfig{Threads: 2, Store: kv.NewLocal(g), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, m2)
	if err := w.Wait(); err != nil {
		t.Errorf("worker exit: %v", err)
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d (stale report corrupted the count)", res.Matches, want)
	}
	if res.StaleCalls != 3 {
		t.Errorf("StaleCalls = %d, want 3", res.StaleCalls)
	}
}

// TestDuplicateReportJournaled: the retry-after-lost-reply scenario, at
// the protocol level — the same successful Report delivered twice
// commits exactly once, the journal holds exactly one completion record
// per task, and a resume replays the exact totals.
func TestDuplicateReportJournaled(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 30, EdgesPer: 3, Triad: 0.4, Seed: 19})
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	jpath := filepath.Join(t.TempDir(), "job.journal")

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.JournalPath = jpath
	cfg.LeaseBatch = 1024
	cfg.LeaseDuration = time.Minute
	var set [][]int64
	cfg.Emit = collectInto(&set)
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	c := dialRaw(t, m.Addr())
	var join JoinReply
	if err := c.Call("Sched.Join", &JoinArgs{Name: "replayer"}, &join); err != nil {
		t.Fatal(err)
	}
	var lease LeaseReply
	if err := c.Call("Sched.Lease", &LeaseArgs{WorkerID: join.WorkerID, Max: 1024, Epoch: join.Epoch}, &lease); err != nil {
		t.Fatal(err)
	}
	if len(lease.Tasks) == 0 {
		t.Fatal("no tasks leased")
	}
	fabricated := func(id int64) Attempt {
		return Attempt{TaskID: id, Stats: exec.Stats{Matches: 1}, Matches: [][]int64{{id, id + 1, id + 2}}}
	}
	// Deliver the first task's report twice — the "reply was lost, the
	// worker retried" wire history — before the rest of the run.
	first := lease.Tasks[0].ID
	if !report(t, c, join, fabricated(first)).Accepted[0] {
		t.Fatal("first delivery not accepted")
	}
	if report(t, c, join, fabricated(first)).Accepted[0] {
		t.Fatal("duplicate delivery accepted: double-commit")
	}
	for _, wt := range lease.Tasks[1:] {
		report(t, c, join, fabricated(wt.ID))
	}
	res := waitResult(t, m)
	wantMatches := int64(res.Tasks) // one fabricated match per task
	if res.Matches != wantMatches || int64(len(set)) != wantMatches {
		t.Errorf("matches=%d emitted=%d, want %d", res.Matches, len(set), wantMatches)
	}
	if res.DuplicateReports != 1 {
		t.Errorf("DuplicateReports = %d, want 1", res.DuplicateReports)
	}

	// The journal must hold exactly one completion per task.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := journal.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Completions) != res.Tasks {
		t.Errorf("journal holds %d completions for %d tasks", len(rep.Completions), res.Tasks)
	}
	seen := map[int64]bool{}
	for _, cpl := range rep.Completions {
		if seen[cpl.TaskID] {
			t.Errorf("task %d journaled twice", cpl.TaskID)
		}
		seen[cpl.TaskID] = true
	}
	m.Close()

	// Resuming replays the exact same totals.
	var set2 [][]int64
	cfg2 := masterFor(t, pl, g, obs.NewRegistry())
	cfg2.JournalPath = jpath
	cfg2.Emit = collectInto(&set2)
	m2, err := StartMaster("127.0.0.1:0", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	res2 := waitResult(t, m2)
	if res2.Matches != wantMatches || int64(len(set2)) != wantMatches {
		t.Errorf("resume: matches=%d emitted=%d, want %d", res2.Matches, len(set2), wantMatches)
	}
}

// TestNetChaosSeveredConns runs a full job while every control-plane
// connection dies after a fixed byte budget: workers must rejoin over
// and over, leases expire and re-queue, and the totals stay exact.
func TestNetChaosSeveredConns(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 200, EdgesPer: 4, Triad: 0.4, Seed: 23})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, ord)

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.LeaseDuration = 250 * time.Millisecond
	cfg.TaskRetries = 100 // every sever can cost an expiry
	cfg.WrapConn = func(c net.Conn) net.Conn {
		return NewFlakyConn(c, FlakyConfig{SeverAfter: 4 << 10})
	}
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	wreg := obs.NewRegistry()
	var workers []*Worker
	for i := 0; i < 2; i++ {
		w, err := StartWorker(m.Addr(), WorkerConfig{
			Threads: 2, Store: kv.NewLocal(g), Obs: wreg, Retry: chaosRetry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	res := waitResult(t, m)
	for _, w := range workers {
		if err := w.Wait(); err != nil {
			t.Errorf("worker exit: %v", err)
		}
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d (severed conns corrupted the run)", res.Matches, want)
	}
	if got := wreg.Counter("sched.worker.rejoins").Value(); got == 0 {
		t.Error("no rejoins despite every conn being severed")
	}
}

// TestNetChaosDroppedWrites: every connection silently swallows one of
// its writes mid-run (then dies, as a gob stream with a hole would);
// retrying workers still finish with exact totals.
func TestNetChaosDroppedWrites(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 60, EdgesPer: 3, Triad: 0.4, Seed: 29})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, ord)

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.LeaseDuration = 250 * time.Millisecond
	cfg.TaskRetries = 100
	cfg.WrapConn = func(c net.Conn) net.Conn {
		return NewFlakyConn(c, FlakyConfig{DropEveryNthWrite: 30})
	}
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	wreg := obs.NewRegistry()
	var workers []*Worker
	for i := 0; i < 2; i++ {
		w, err := StartWorker(m.Addr(), WorkerConfig{
			Threads: 2, Store: kv.NewLocal(g), Obs: wreg, Retry: chaosRetry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	res := waitResult(t, m)
	for _, w := range workers {
		if err := w.Wait(); err != nil {
			t.Errorf("worker exit: %v", err)
		}
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d (dropped writes corrupted the run)", res.Matches, want)
	}
}

// TestWorkerShutdownDrains: Shutdown must execute and report every task
// the worker already leased — no lease is left to expire — before the
// worker exits cleanly; a successor then finishes the run exactly.
func TestWorkerShutdownDrains(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 80, EdgesPer: 3, Triad: 0.4, Seed: 31})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, ord)

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	slow := slowStore{kv.NewLocal(g), 300 * time.Microsecond}
	first, err := StartWorker(m.Addr(), WorkerConfig{Threads: 2, Store: slow, Obs: reg, Name: "retiring"})
	if err != nil {
		t.Fatal(err)
	}
	completed := reg.Counter("sched.tasks.completed")
	for completed.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := first.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(); err != nil {
		t.Errorf("drained worker exit: %v", err)
	}
	drainedAt := completed.Value()
	if drainedAt == 0 {
		t.Error("worker drained without committing anything")
	}

	second, err := StartWorker(m.Addr(), WorkerConfig{Threads: 2, Store: kv.NewLocal(g), Obs: reg, Name: "successor"})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, m)
	if err := second.Wait(); err != nil {
		t.Errorf("successor exit: %v", err)
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d", res.Matches, want)
	}
	if res.LeasesExpired != 0 {
		t.Errorf("LeasesExpired = %d, want 0: Shutdown abandoned a lease", res.LeasesExpired)
	}
}

// TestFlakyConnFaults covers the injector's fault mechanics directly:
// read delay, byte-budget sever, and write dropping.
func TestFlakyConnFaults(t *testing.T) {
	pipe := func() (net.Conn, net.Conn) { return net.Pipe() }

	t.Run("delay", func(t *testing.T) {
		a, b := pipe()
		defer a.Close()
		fc := NewFlakyConn(b, FlakyConfig{Delay: 30 * time.Millisecond})
		defer fc.Close()
		go a.Write([]byte("ping"))
		buf := make([]byte, 4)
		start := time.Now()
		if _, err := fc.Read(buf); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < 30*time.Millisecond {
			t.Errorf("read returned after %v, want ≥ 30ms of injected delay", d)
		}
	})

	t.Run("sever-after-bytes", func(t *testing.T) {
		a, b := pipe()
		defer a.Close()
		fc := NewFlakyConn(b, FlakyConfig{SeverAfter: 8})
		go func() {
			buf := make([]byte, 16)
			for {
				if _, err := a.Read(buf); err != nil {
					return
				}
			}
		}()
		if _, err := fc.Write([]byte("12345678")); err == nil && !fc.Severed() {
			t.Fatal("byte budget exhausted but conn not severed")
		}
		if _, err := fc.Write([]byte("x")); err == nil {
			t.Fatal("write succeeded on a severed conn")
		}
	})

	t.Run("drop-write", func(t *testing.T) {
		a, b := pipe()
		defer a.Close()
		fc := NewFlakyConn(b, FlakyConfig{DropEveryNthWrite: 1})
		n, err := fc.Write([]byte("vanish"))
		if err != nil || n != len("vanish") {
			t.Fatalf("dropped write reported (%d, %v), want silent success", n, err)
		}
		if !fc.Severed() {
			t.Fatal("stream not severed after a dropped write")
		}
	})
}

// TestJournalRefusesOtherRelabelledGraph: on graphs relabelled by ≺ the
// order is the identity, so the journal pins the relabel map instead of
// the ranks. A resume on another graph of the same |V| — same plan, same
// task count — is refused; one on the same graph resumes. The Join
// payload of an identity order carries no rank array.
func TestJournalRefusesOtherRelabelledGraph(t *testing.T) {
	a := graph.Relabel(gen.PowerLaw(gen.PowerLawConfig{N: 40, EdgesPer: 3, Triad: 0.4, Seed: 3}))
	b := graph.Relabel(gen.PowerLaw(gen.PowerLawConfig{N: 40, EdgesPer: 3, Triad: 0.4, Seed: 4}))
	pl := bestPlan(t, gen.Triangle(), a, plan.OptimizedUncompressed)
	jpath := filepath.Join(t.TempDir(), "job.journal")
	start := func(g *graph.Graph) (*Master, error) {
		cfg := masterFor(t, pl, g, obs.NewRegistry())
		cfg.JournalPath = jpath
		return StartMaster("127.0.0.1:0", cfg)
	}
	m, err := start(a)
	if err != nil {
		t.Fatal(err)
	}
	var join JoinReply
	if err := dialRaw(t, m.Addr()).Call("Sched.Join", &JoinArgs{Name: "probe"}, &join); err != nil {
		t.Fatal(err)
	}
	if join.Ranks != nil {
		t.Errorf("Join sent %d ranks for an identity order", len(join.Ranks))
	}
	m.Close()
	if m, err := start(b); err == nil {
		m.Close()
		t.Fatal("master resumed a journal written for another graph of the same |V|")
	}
	m, err = start(a)
	if err != nil {
		t.Fatalf("resume on the journal's own graph: %v", err)
	}
	m.Close()
}
