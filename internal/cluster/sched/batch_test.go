package sched

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
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

// This file tests the batched report path: exactly-once under every
// kind of batch re-delivery, the journal's batch append at the master
// level, the worker's outbox bounds, and the two control-plane bugs the
// batching work fixed on the way (a worker stuck behind a finished
// master; steals of work the victim is already doing).

// fabricated is the attempt the protocol-level tests report for task id:
// one made-up match, recognisable by its task.
func fabricated(id int64) Attempt {
	return Attempt{TaskID: id, Stats: exec.Stats{Matches: 1}, Matches: [][]int64{{id, id + 1, id + 2}}}
}

// smallJob is a triangle job of a few dozen tasks for protocol tests
// that script every report themselves.
func smallJob(t *testing.T, seed int64) (*plan.Plan, *graph.Graph) {
	t.Helper()
	g := gen.PowerLaw(gen.PowerLawConfig{N: 40, EdgesPer: 3, Triad: 0.4, Seed: seed})
	return bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed), g
}

// eventually polls cond until it holds; a condition that never comes
// true fails the test instead of hanging it.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// joinRaw joins a raw client and leases up to max tasks for it.
func joinRaw(t *testing.T, addr, name string, max int) (JoinReply, *rpc.Client, []WireTask) {
	t.Helper()
	c := dialRaw(t, addr)
	var join JoinReply
	if err := c.Call("Sched.Join", &JoinArgs{Name: name}, &join); err != nil {
		t.Fatal(err)
	}
	var lease LeaseReply
	if err := c.Call("Sched.Lease", &LeaseArgs{WorkerID: join.WorkerID, Max: max, Epoch: join.Epoch}, &lease); err != nil {
		t.Fatal(err)
	}
	return join, c, lease.Tasks
}

// TestReportBatchExactlyOnceProperty drives random report batches —
// overlapping, repeated, mixing failed attempts, duplicates and fresh
// completions, the same task several times in one batch — through the
// wire against a model of what the master must answer. Whatever the
// batches: every task commits once, every failed attempt of a held lease
// re-queues once, Accepted is right attempt by attempt, and the journal
// ends with one record per task.
func TestReportBatchExactlyOnceProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			pl, g := smallJob(t, 7)
			jpath := filepath.Join(t.TempDir(), "job.journal")
			reg := obs.NewRegistry()
			cfg := masterFor(t, pl, g, reg)
			cfg.JournalPath, cfg.JournalNoSync = jpath, true
			cfg.LeaseBatch, cfg.LeaseDuration, cfg.TaskRetries = 1024, time.Minute, 1000
			var emitted []int64
			cfg.Emit = func(f []int64) bool { emitted = append(emitted, f[0]); return true }
			m, err := StartMaster("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			join, c, tasks := joinRaw(t, m.Addr(), "scripted", 1024)
			n := len(tasks)
			if n != m.Result().Tasks {
				t.Fatalf("leased %d of %d tasks", n, m.Result().Tasks)
			}

			// The model: a task is ours until a failed attempt hands the
			// lease back, and done from its first successful attempt on.
			ours, done := make([]bool, n), make([]bool, n)
			for i := range ours {
				ours[i] = true
			}
			var wantRetried, wantDup, reports int
			rng := rand.New(rand.NewSource(seed))
			deliver := func(batch []Attempt) {
				t.Helper()
				want := make([]bool, len(batch))
				for i, a := range batch {
					switch {
					case a.Err != "":
						if ours[a.TaskID] && !done[a.TaskID] {
							wantRetried++
						}
					case done[a.TaskID]:
						wantDup++
					default:
						done[a.TaskID], want[i] = true, true
					}
					ours[a.TaskID] = false
				}
				rep := report(t, c, join, batch...)
				reports++
				for i := range want {
					if rep.Accepted[i] != want[i] {
						t.Fatalf("batch %v: Accepted[%d] = %v, want %v", ids(batch), i, rep.Accepted[i], want[i])
					}
				}
			}
			var prev []Attempt
			for round := 0; round < 12; round++ {
				batch := make([]Attempt, 1+rng.Intn(8))
				for i := range batch {
					batch[i] = fabricated(int64(rng.Intn(n)))
					if rng.Intn(4) == 0 {
						batch[i] = Attempt{TaskID: batch[i].TaskID, Err: "injected"}
					}
				}
				switch rng.Intn(3) {
				case 0: // A∪B then B∪C: carry half of the previous batch over
					batch = append(batch, prev[len(prev)/2:]...)
				case 1: // the same batch twice
					deliver(batch)
				}
				deliver(batch)
				prev = batch
			}
			var rest []Attempt
			for id := range done {
				if !done[id] {
					rest = append(rest, fabricated(int64(id)))
				}
			}
			deliver(rest)

			res := waitResult(t, m)
			if res.Matches != int64(n) || len(emitted) != n {
				t.Errorf("matches=%d emitted=%d, want %d each", res.Matches, len(emitted), n)
			}
			sort.Slice(emitted, func(i, j int) bool { return emitted[i] < emitted[j] })
			for i, id := range emitted {
				if id != int64(i) {
					t.Fatalf("emission multiset wrong at %d: task %d", i, id)
				}
			}
			if res.TasksRetried != wantRetried {
				t.Errorf("TasksRetried = %d, want %d", res.TasksRetried, wantRetried)
			}
			if res.DuplicateReports != wantDup {
				t.Errorf("DuplicateReports = %d, want %d", res.DuplicateReports, wantDup)
			}
			if got := reg.Counter("sched.journal.records").Value(); got != int64(n+2) {
				t.Errorf("sched.journal.records = %d, want %d (spec + epoch + one per task)", got, n+2)
			}
			if got := reg.Histogram("sched.report.batch_items").Count(); got != int64(reports) {
				t.Errorf("sched.report.batch_items count = %d, want %d reports", got, reports)
			}
			m.Close()
			data, err := os.ReadFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			rep, _, err := journal.Decode(data)
			if err != nil || rep.Torn || len(rep.Completions) != n {
				t.Fatalf("journal: err=%v torn=%v completions=%d, want %d", err, rep.Torn, len(rep.Completions), n)
			}
		})
	}
}

func ids(batch []Attempt) []int64 {
	out := make([]int64, len(batch))
	for i, a := range batch {
		out[i] = a.TaskID
		if a.Err != "" {
			out[i] = -a.TaskID - 1 // failed attempts print negative
		}
	}
	return out
}

// TestMasterKilledAfterBatchAppend: the master appends a batch to the
// journal, commits it, and dies before the worker hears back. The resumed
// master replays all N tasks, the worker's retried batch drops as N
// duplicates, and the emission multiset equals an uninterrupted run's.
func TestMasterKilledAfterBatchAppend(t *testing.T) {
	pl, g := smallJob(t, 11)
	jpath := filepath.Join(t.TempDir(), "job.journal")
	cfg1 := masterFor(t, pl, g, obs.NewRegistry())
	cfg1.JournalPath, cfg1.LeaseBatch, cfg1.LeaseDuration = jpath, 1024, time.Minute
	// The second connection swallows its first server-side write — the
	// report's reply — and dies: the append happened, the ack did not.
	var conns atomic.Int32
	cfg1.WrapConn = func(c net.Conn) net.Conn {
		if conns.Add(1) == 2 {
			return NewFlakyConn(c, FlakyConfig{DropEveryNthWrite: 1})
		}
		return c
	}
	m1, err := StartMaster("127.0.0.1:0", cfg1)
	if err != nil {
		t.Fatal(err)
	}
	join1, _, tasks := joinRaw(t, m1.Addr(), "victim", 1024)
	const batchN = 5
	var batch []Attempt
	for _, wt := range tasks[:batchN] {
		batch = append(batch, fabricated(wt.ID))
	}
	lossy := dialRaw(t, m1.Addr())
	var lost ReportReply
	if err := lossy.Call("Sched.Report", &ReportArgs{WorkerID: join1.WorkerID, Epoch: join1.Epoch, Attempts: batch}, &lost); err == nil {
		t.Fatalf("report reply survived the dropped write: %+v", lost)
	}
	m1.Close() // writes nothing further: the journal is what a kill -9 would have left

	var emitted []int64
	reg2 := obs.NewRegistry()
	cfg2 := masterFor(t, pl, g, reg2)
	cfg2.JournalPath, cfg2.LeaseBatch, cfg2.LeaseDuration = jpath, 1024, time.Minute
	cfg2.Emit = func(f []int64) bool { emitted = append(emitted, f[0]); return true }
	m2, err := StartMaster("127.0.0.1:0", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Result().Replayed; got != batchN {
		t.Fatalf("resumed master replayed %d tasks, want the whole batch of %d", got, batchN)
	}
	join2, c2, rest := joinRaw(t, m2.Addr(), "victim-rejoined", 1024)
	if len(rest) != len(tasks)-batchN {
		t.Fatalf("resumed master leased %d tasks, want %d", len(rest), len(tasks)-batchN)
	}
	for i, ok := range report(t, c2, join2, batch...).Accepted {
		if ok {
			t.Errorf("retried attempt %d accepted: task %d double-committed", i, batch[i].TaskID)
		}
	}
	var remaining []Attempt
	for _, wt := range rest {
		remaining = append(remaining, fabricated(wt.ID))
	}
	report(t, c2, join2, remaining...)
	res := waitResult(t, m2)
	if res.DuplicateReports != batchN {
		t.Errorf("DuplicateReports = %d, want %d", res.DuplicateReports, batchN)
	}
	if res.Matches != int64(len(tasks)) || len(emitted) != len(tasks) {
		t.Errorf("matches=%d emitted=%d, want %d each", res.Matches, len(emitted), len(tasks))
	}
	sort.Slice(emitted, func(i, j int) bool { return emitted[i] < emitted[j] })
	for i, id := range emitted {
		if id != int64(i) {
			t.Fatalf("emission multiset differs from the reference at %d: task %d", i, id)
		}
	}
}

// TestReportRedeliveredAfterTimeout produces the duplicate delivery the
// way the network does: a real worker's report reaches the master, the
// reply is held until the attempt has timed out, the worker rejoins and
// retries, and the master sees the batch twice. Totals stay exact.
func TestReportRedeliveredAfterTimeout(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 60, EdgesPer: 3, Triad: 0.4, Seed: 5})
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, graph.NewTotalOrder(g))

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.LeaseDuration, cfg.TaskRetries = 200*time.Millisecond, 100
	var set [][]int64
	cfg.Emit = collectInto(&set)
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The worker talks to the master through a relay. Its first
	// connection is healthy until the test cuts it. On every later one,
	// until the master has seen a duplicate, a reply read after a report
	// reached the master is held until the worker hangs up — which it does
	// when that call's attempt times out — and then dropped. Replies that
	// precede the connection's first report (Join, Lease, Heartbeat) pass.
	reports := reg.Histogram("sched.report.batch_items")
	dups := reg.Counter("sched.tasks.duplicate")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	firstConn := make(chan net.Conn, 1)
	go func() {
		for n := 1; ; n++ {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", m.Addr())
			if err != nil {
				down.Close()
				return
			}
			if n == 1 {
				firstConn <- down
			}
			base := reports.Count()
			hungUp := make(chan struct{})
			go func() {
				io.Copy(up, down)
				up.Close()
				close(hungUp)
			}()
			go func() {
				defer down.Close()
				buf := make([]byte, 32<<10)
				for {
					k, err := up.Read(buf)
					if k > 0 && n > 1 && reports.Count() > base && dups.Value() == 0 {
						<-hungUp
						return
					}
					if k > 0 {
						if _, err := down.Write(buf[:k]); err != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	// The worker's threads block inside their first tasks until released,
	// so their reports are guaranteed to go out after the cut.
	gate := &gatedStore{Store: kv.NewLocal(g), release: make(chan struct{})}
	retry := chaosRetry()
	retry.Timeout = 20 * time.Millisecond
	w, err := StartWorker(ln.Addr().String(), WorkerConfig{Threads: 2, Store: gate, Obs: obs.NewRegistry(), Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "both threads are inside a task", func() bool { return gate.blocked.Load() == 2 })
	(<-firstConn).Close()
	close(gate.release)

	res := waitResult(t, m)
	if err := w.Wait(); err != nil {
		t.Errorf("worker exit: %v", err)
	}
	if res.Matches != want || int64(len(set)) != want {
		t.Errorf("matches=%d emitted=%d, want %d", res.Matches, len(set), want)
	}
	if got := reg.Counter("sched.tasks.duplicate").Value(); got == 0 {
		t.Error("no duplicate delivery: the timed-out report was not retried, the test exercised nothing")
	}
}

// gatedStore blocks every query until release is closed, counting the
// callers it holds.
type gatedStore struct {
	kv.Store
	release chan struct{}
	blocked atomic.Int32
}

func (s *gatedStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	select {
	case <-s.release:
	default:
		s.blocked.Add(1)
		<-s.release
	}
	return s.Store.GetAdjBatch(vs)
}

// TestStealSparesWorkInProgress scripts a steal against a worker with a
// deep local queue whose thread is stuck mid-task: the thief gets only
// backlog beyond what the victim reported held or about to start, the
// victim drops the revoked tasks unexecuted, and every task runs once.
func TestStealSparesWorkInProgress(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 120, EdgesPer: 3, Triad: 0.4, Seed: 3})
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, graph.NewTotalOrder(g))

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.LeaseBatch, cfg.LeaseDuration, cfg.HeartbeatEvery = 16, time.Minute, 5*time.Millisecond
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	gate := &gatedStore{Store: kv.NewLocal(g), release: make(chan struct{})}
	vreg := obs.NewRegistry()
	victim, err := StartWorker(m.Addr(), WorkerConfig{Threads: 1, Store: gate, Obs: vreg, Name: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "the victim's thread is stuck inside a task", func() bool { return gate.blocked.Load() == 1 })
	// The victim has not finished a task, so it has no task span to size
	// its lease depth from. Give it one — four tasks per round trip — and
	// wake its dispatcher, which then leases that far ahead; then pin both
	// measurements so the protected front of the queue stays four tasks
	// whatever the next round trips measure.
	victim.mu.Lock()
	victim.spanNs = victim.leaseNs / 2
	victim.mu.Unlock()
	select {
	case victim.pulled <- struct{}{}:
	default:
	}
	eventually(t, "the victim has a deep local queue", func() bool {
		victim.mu.Lock()
		defer victim.mu.Unlock()
		if len(victim.queue) < 8 {
			return false
		}
		victim.leaseNs, victim.spanNs = 4, 2
		return true
	})
	// Let a heartbeat carry the victim's held set to the master.
	heartbeats := reg.Counter("sched.heartbeats")
	seen := heartbeats.Value()
	eventually(t, "the victim has heartbeated its held set", func() bool { return heartbeats.Value() >= seen+2 })

	// The thief drains the pending queue, then steals.
	treg := obs.NewRegistry()
	thief, err := StartWorker(m.Addr(), WorkerConfig{Threads: 1, Store: kv.NewLocal(g), Obs: treg, Name: "thief"})
	if err != nil {
		t.Fatal(err)
	}
	steals := reg.Counter("sched.steals")
	// Release the victim only once it has heard about every steal, the
	// thief has run out of things to take, and — so that no steal can
	// race the victim's restart — the thief has drained and left.
	stable := 0
	eventually(t, "the victim has heard of every steal", func() bool {
		victim.mu.Lock()
		defer victim.mu.Unlock()
		if n := steals.Value(); n == 0 || int64(len(victim.revoked)) != n {
			stable = 0
			return false
		}
		stable++
		return stable >= 20
	})
	thief.Shutdown()
	close(gate.release)

	res := waitResult(t, m)
	for _, w := range []*Worker{victim, thief} {
		if err := w.Wait(); err != nil {
			t.Errorf("worker %d exit: %v", w.ID(), err)
		}
	}
	if res.Steals == 0 {
		t.Fatal("nothing was stolen from a deep, stuck queue")
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d", res.Matches, want)
	}
	if res.DuplicateReports != 0 {
		t.Errorf("DuplicateReports = %d, want 0: a steal took work the victim was doing", res.DuplicateReports)
	}
	executed := vreg.Histogram("cluster.task.duration_ns").Count() + treg.Histogram("cluster.task.duration_ns").Count()
	if executed != int64(res.Tasks) {
		t.Errorf("%d task executions for %d tasks: stolen tasks did not run exactly once", executed, res.Tasks)
	}
}

// TestWorkerLeavesWithFinishedMaster is the regression test for the
// stuck worker: an idle worker that learns the run is over from a
// heartbeat must leave at once, not wake from its lease back-off into a
// master that has exited and retry it for the whole rejoin budget — and
// the master must not exit before the worker has actually heard. And a
// worker already retrying a dead master must still obey Shutdown.
func TestWorkerLeavesWithFinishedMaster(t *testing.T) {
	patient := &resilience.Policy{MaxAttempts: 10000, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, Multiplier: 2}
	exits := func(t *testing.T, what string, f func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: worker still running 1s later", what)
		}
	}
	// parked starts a master whose every task is held, reported running,
	// by a raw client, and a real worker that therefore has nothing to do.
	parked := func(t *testing.T) (*Master, *Worker, func()) {
		pl, g := smallJob(t, 13)
		cfg := masterFor(t, pl, g, obs.NewRegistry())
		cfg.LeaseBatch, cfg.LeaseDuration, cfg.HeartbeatEvery = 1024, time.Minute, 20*time.Millisecond
		m, err := StartMaster("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		join, c, tasks := joinRaw(t, m.Addr(), "hoarder", 1024)
		var all []Attempt
		var running []int64
		for _, wt := range tasks {
			all = append(all, fabricated(wt.ID))
			running = append(running, wt.ID)
		}
		var hb HeartbeatReply
		if err := c.Call("Sched.Heartbeat", &HeartbeatArgs{WorkerID: join.WorkerID, Epoch: join.Epoch, Running: running}, &hb); err != nil {
			t.Fatal(err)
		}
		w, err := StartWorker(m.Addr(), WorkerConfig{Threads: 1, Store: kv.NewLocal(g), Obs: obs.NewRegistry(), Retry: patient})
		if err != nil {
			t.Fatal(err)
		}
		return m, w, func() { report(t, c, join, all...); c.Close() }
	}

	for i := 0; i < 5; i++ {
		m, w, finish := parked(t)
		finish()
		if !m.Drain(2 * time.Second) {
			t.Fatal("idle worker never observed the finished run")
		}
		m.Close()
		exits(t, "after the master finished and closed", w.Wait)
	}

	m, w, _ := parked(t)
	m.Close() // the master dies mid-run: the worker starts retrying it
	time.Sleep(50 * time.Millisecond)
	exits(t, "Shutdown while retrying a dead master", func() error { w.Shutdown(); return w.Wait() })
}

// TestOutboxBounds drives the outbox directly: threads block when it
// holds outboxItems attempts or outboxBytes bytes, and an attempt over
// the byte bound enters only an empty outbox, so it is shipped alone.
func TestOutboxBounds(t *testing.T) {
	w := &Worker{held: map[int64]struct{}{}}
	w.cond = sync.NewCond(&w.mu)
	enqueued := make(chan int64, 2*outboxItems)
	put := func(a Attempt) {
		go func() { w.enqueue(a); enqueued <- a.TaskID }()
	}
	waitFor := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-enqueued:
			case <-time.After(5 * time.Second):
				t.Fatalf("enqueue %d of %d still blocked", i+1, n)
			}
		}
	}
	blocked := func(what string) {
		t.Helper()
		select {
		case id := <-enqueued:
			t.Fatalf("%s: attempt %d was admitted", what, id)
		case <-time.After(30 * time.Millisecond):
		}
	}

	for i := 0; i < outboxItems; i++ {
		put(Attempt{TaskID: int64(i)})
	}
	waitFor(outboxItems)
	put(Attempt{TaskID: 1000})
	blocked("outbox at its item bound")
	if got := len(w.takeOutbox()); got != outboxItems {
		t.Fatalf("took %d attempts, want %d", got, outboxItems)
	}
	waitFor(1) // the blocked one gets in once there is room

	// One row of outboxBytes/8 vertices is over the byte bound on its own.
	huge := Attempt{TaskID: 2000, Matches: [][]int64{make([]int64, outboxBytes/8)}}
	put(huge)
	blocked("oversize attempt into a non-empty outbox")
	if got := w.takeOutbox(); len(got) != 1 || got[0].TaskID != 1000 {
		t.Fatalf("took %v, want just attempt 1000", ids(got))
	}
	waitFor(1) // now the outbox is empty, the oversize attempt enters
	put(Attempt{TaskID: 3000})
	blocked("small attempt behind an oversize one")
	if got := w.takeOutbox(); len(got) != 1 || got[0].TaskID != 2000 {
		t.Fatalf("took %v, want the oversize attempt alone", ids(got))
	}
	waitFor(1)

	// Closing releases the reporter with what is left, then with nil.
	w.mu.Lock()
	w.outboxClosed = true
	w.mu.Unlock()
	w.cond.Broadcast()
	if got := w.takeOutbox(); len(got) != 1 || got[0].TaskID != 3000 {
		t.Fatalf("took %v, want attempt 3000", ids(got))
	}
	if got := w.takeOutbox(); got != nil {
		t.Fatalf("closed, empty outbox returned %v", ids(got))
	}
}

// TestReportsSelfBatch: when a report round trip is slow next to a task,
// attempts pile up behind it and travel together — far fewer reports and
// journal fsyncs than tasks, with no timer or size setting involved.
func TestReportsSelfBatch(t *testing.T) {
	g := testGraph()
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, graph.NewTotalOrder(g))

	reg := obs.NewRegistry()
	cfg := masterFor(t, pl, g, reg)
	cfg.JournalPath = filepath.Join(t.TempDir(), "job.journal")
	cfg.WrapConn = func(c net.Conn) net.Conn {
		return NewFlakyConn(c, FlakyConfig{Delay: time.Millisecond})
	}
	m, err := StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	w, err := StartWorker(m.Addr(), WorkerConfig{Threads: 2, Store: kv.NewLocal(g), Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	res := waitResult(t, m)
	if err := w.Wait(); err != nil {
		t.Errorf("worker exit: %v", err)
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d", res.Matches, want)
	}
	batches := reg.Histogram("sched.report.batch_items").Snapshot()
	if batches.Sum != int64(res.Tasks+res.DuplicateReports) {
		t.Errorf("reports carried %d attempts, want %d", batches.Sum, res.Tasks+res.DuplicateReports)
	}
	if batches.Count*4 > int64(res.Tasks) {
		t.Errorf("%d reports for %d tasks: attempts did not batch behind a slow round trip", batches.Count, res.Tasks)
	}
	// One fsync per journal append: the spec, the epoch, and each report.
	if syncs := reg.Counter("sched.journal.syncs").Value(); syncs > batches.Count+2 {
		t.Errorf("%d journal fsyncs for %d reports", syncs, batches.Count)
	}
	if records := reg.Counter("sched.journal.records").Value(); records != int64(res.Tasks+2) {
		t.Errorf("sched.journal.records = %d, want %d", records, res.Tasks+2)
	}
}
