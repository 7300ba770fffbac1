package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"benu/internal/cluster"
	"benu/internal/cluster/sched/journal"
	"benu/internal/exec"
	"benu/internal/graph"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/vcbc"
)

// MasterConfig parameterizes a control-plane run. Plan, NumVertices,
// and Ord are required; everything else has a usable default.
type MasterConfig struct {
	// Plan is the plan every worker executes.
	Plan *plan.Plan
	// NumVertices is |V(G)| of the data graph.
	NumVertices int
	// Ord is the symmetry-breaking total order, shipped to workers as
	// its rank array — or as nothing when it is the identity, as it is
	// for every graph the binaries load (cmd/internal/cli relabels).
	Ord *graph.TotalOrder
	// Degree reports d_G(v); required for task splitting (Tau > 0) and
	// degree-filtered plans.
	Degree func(v int64) int
	// LabelOf supplies data-vertex labels; required for labeled
	// patterns.
	LabelOf func(v int64) int64
	// Tau, TaskRetries, TriangleCacheEntries, Prefetch and
	// CompactAdjacency are the job's machine settings, documented on
	// cluster.Spec. The master splits tasks by Tau and re-queues them
	// under TaskRetries, and hands the whole Spec to every worker.
	Tau                  int
	TaskRetries          int
	TriangleCacheEntries int
	Prefetch             bool
	CompactAdjacency     bool
	// LeaseDuration is how long heartbeat silence is tolerated before a
	// worker's leases start expiring. Default 3s.
	LeaseDuration time.Duration
	// HeartbeatEvery is the heartbeat/poll interval workers are told to
	// use. Default LeaseDuration/4.
	HeartbeatEvery time.Duration
	// LeaseBatch caps tasks handed out per Lease call. Default 16.
	LeaseBatch int
	// StoreAddrs are handed to workers that dial their own store.
	StoreAddrs []string
	// JournalPath enables crash-consistent recovery: every report's
	// completions are appended (and fsync'd once, as a batch) to this
	// write-ahead log before the report is acknowledged, and StartMaster
	// replays an existing journal — completed tasks are skipped, their
	// stats and emissions re-applied, and the master runs at the next
	// epoch so calls from the previous incarnation are fenced. Empty
	// disables journaling (the PR 7 in-memory-only behavior).
	JournalPath string
	// JournalNoSync skips the per-report fsync — recovery then survives
	// a process crash but not an OS crash. For tests and the
	// differential matrix, where the fsync cost dwarfs the tiny runs.
	JournalNoSync bool
	// WrapConn, when set, wraps every accepted connection before it is
	// served — the chaos tests' hook for injecting RPC-layer faults
	// (see FlakyConn). nil serves connections as accepted.
	WrapConn func(net.Conn) net.Conn
	// Emit / EmitCode receive committed results on the master, called
	// from RPC handler goroutines under the master's lock — they must
	// not call back into the Master. The slice/code is owned by the
	// callback (it was decoded fresh from the wire).
	Emit     func(f []int64) bool
	EmitCode func(c *vcbc.Code) bool
	// Obs selects the metrics registry (sched.* names, plus the
	// cluster.tasks.retried/failed re-execution counters). nil means
	// obs.Default().
	Obs *obs.Registry
}

// spec is the one place the machine settings are read out of c.
func (c *MasterConfig) spec() cluster.Spec {
	return cluster.Spec{Tau: c.Tau, TaskRetries: c.TaskRetries, TriangleCacheEntries: c.TriangleCacheEntries,
		Prefetch: c.Prefetch, CompactAdjacency: c.CompactAdjacency}
}

func (c *MasterConfig) withDefaults() {
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = 3 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.LeaseDuration / 4
	}
	if c.LeaseBatch <= 0 {
		c.LeaseBatch = 16
	}
}

// Result summarizes a control-plane run.
type Result struct {
	// Matches / Codes are the committed totals (expanded count for
	// compressed plans / VCBC codes emitted).
	Matches int64
	Codes   int64
	// Tasks is the generated task count; SplitTasks how many are §V-B
	// split subtasks.
	Tasks      int
	SplitTasks int
	// TasksRetried counts re-queued attempts (failed reports and
	// expired leases); TasksFailed counts tasks that exhausted the
	// budget (nonzero only when the run errors).
	TasksRetried int
	TasksFailed  int
	// Steals counts tasks reassigned from a straggler's backlog to an
	// idle worker.
	Steals int
	// LeasesExpired counts tasks re-queued because their holder was
	// declared dead.
	LeasesExpired int
	// DuplicateReports counts completions dropped by exactly-once
	// dedup (a stolen or expired task that finished anyway).
	DuplicateReports int
	// WorkersJoined is the total number of workers that ever joined.
	WorkersJoined int
	// Replayed counts completions restored from the journal rather than
	// committed live in this incarnation (nonzero only on a resumed run).
	Replayed int
	// StaleCalls counts RPCs rejected because they carried a fenced
	// epoch (a worker that had not yet noticed the master restarted).
	StaleCalls int
	// Epoch is the master incarnation the run finished under (1 for a
	// fresh journal or no journal at all).
	Epoch uint64
	// Wall is the end-to-end run time, StartMaster to completion.
	Wall time.Duration
	// Stats aggregates the committed executor counters.
	Stats exec.Stats
}

// Task lifecycle states.
const (
	taskPending = iota
	taskLeased
	taskDone
)

// taskState tracks one task through lease, steal, expiry, and commit.
type taskState struct {
	st       int
	worker   int // current lease holder when taskLeased
	attempts int // failed/expired attempts so far
	// stolen: this lease was moved to its holder by a steal, and is not
	// stolen again (see stealLocked). Cleared when the task is re-queued.
	stolen bool
}

// workerRec is the master's view of one worker.
type workerRec struct {
	id       int
	lastSeen time.Time
	dead     bool
	// leased / running are task indexes: everything this worker holds,
	// and the subset its last call (of any kind) said was executing or
	// awaiting acknowledgement. Backlog (leased − running) is what
	// stealing may take.
	leased  map[int]struct{}
	running map[int]struct{}
	// revoked accumulates stolen task IDs until the worker's next call
	// drains them back to it.
	revoked []int64
	// spans is this worker's observed task-duration histogram — the
	// obs task-span view stealing ranks stragglers by.
	spans *obs.Histogram
	// silentScans counts the expiry scans in a row that found this
	// worker silent past LeaseDuration; fenceAfterSilentScans of them
	// fence it, and any call resets it.
	silentScans int
	// serves marks the adjacency-store hash partitions this worker
	// co-hosts (JoinArgs.StoreParts); numParts is the partitioning those
	// indexes refer to. Empty means no locality preference.
	serves   map[int]struct{}
	numParts int
}

// fenceAfterSilentScans is how many expiry scans in a row must find a
// worker silent before it is declared dead: one silent scan can be a late
// heartbeat, two in a row are taken for a dead worker.
const fenceAfterSilentScans = 2

// Master owns the task queue and serves it over TCP.
type Master struct {
	cfg       MasterConfig
	spec      cluster.Spec
	planBytes []byte
	degrees   []int32
	labels    []int64

	listener net.Listener
	rpcSrv   *rpc.Server
	wg       sync.WaitGroup
	quit     chan struct{}

	reg           *obs.Registry
	workersGauge  *obs.Gauge
	heartbeatsC   *obs.Counter
	leasedC       *obs.Counter
	completedC    *obs.Counter
	duplicateC    *obs.Counter
	stealsC       *obs.Counter
	leaseExpiredC *obs.Counter
	retriedC      *obs.Counter
	failedC       *obs.Counter
	remoteTaskH   *obs.Histogram
	batchItemsH   *obs.Histogram
	jRecordsC     *obs.Counter
	jBytesC       *obs.Counter
	jSyncsC       *obs.Counter
	jReplayedC    *obs.Counter
	epochGauge    *obs.Gauge
	staleC        *obs.Counter

	// epoch is this incarnation's fencing token: 1 + the highest epoch
	// the journal recorded, or 1 when starting fresh. Immutable after
	// StartMaster, so handlers may read it without holding mu.
	epoch uint64

	mu        sync.Mutex
	jl        *journal.Log // nil when journaling is disabled
	tasks     []exec.Task
	state     []taskState
	pending   []int // task indexes, served LIFO (fresh re-queues drain first)
	doneCount int
	workers   []*workerRec
	conns     map[net.Conn]struct{}
	closed    bool
	finished  bool
	err       error
	done      chan struct{}
	start     time.Time
	res       Result
}

// schedService is the RPC receiver; a wrapper type keeps the Master's
// own method set free of wire-shaped signatures.
type schedService struct{ m *Master }

// StartMaster generates the task queue for cfg.Plan and serves it on
// addr (e.g. "127.0.0.1:0"). It returns once the listener is bound;
// use Addr to learn the bound address, Wait for the result, and Close
// to shut down.
func StartMaster(addr string, cfg MasterConfig) (*Master, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sched: listen %s: %w", addr, err)
	}
	return ServeMaster(ln, cfg)
}

// ServeMaster is StartMaster on a listener the caller already bound —
// for a process that must claim its control-plane address before it
// opens other ephemeral listeners, which the kernel could otherwise
// place on that very port. The master owns ln from here on: it is closed
// by Close, or before returning an error.
func ServeMaster(ln net.Listener, cfg MasterConfig) (m *Master, err error) {
	defer func() {
		if err != nil {
			ln.Close()
		}
	}()
	if cfg.Plan == nil || cfg.NumVertices <= 0 || cfg.Ord == nil {
		return nil, fmt.Errorf("sched: MasterConfig needs Plan, NumVertices, and Ord")
	}
	if cfg.Plan.Pattern.Labeled() && cfg.LabelOf == nil {
		return nil, fmt.Errorf("sched: labeled pattern %q requires MasterConfig.LabelOf", cfg.Plan.Pattern.Name())
	}
	cfg.withDefaults()
	prog, err := exec.Compile(cfg.Plan)
	if err != nil {
		return nil, err
	}
	planBytes, err := json.Marshal(cfg.Plan)
	if err != nil {
		return nil, fmt.Errorf("sched: encode plan: %w", err)
	}
	spec := cfg.spec()
	tasks, splitCount := cluster.GenerateTasks(cfg.Plan, prog, cfg.NumVertices, cfg.Degree, spec.Tau, cfg.LabelOf)

	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	m = &Master{
		cfg:           cfg,
		spec:          spec,
		planBytes:     planBytes,
		quit:          make(chan struct{}),
		reg:           reg,
		workersGauge:  reg.Gauge("sched.workers"),
		heartbeatsC:   reg.Counter("sched.heartbeats"),
		leasedC:       reg.Counter("sched.tasks.leased"),
		completedC:    reg.Counter("sched.tasks.completed"),
		duplicateC:    reg.Counter("sched.tasks.duplicate"),
		stealsC:       reg.Counter("sched.steals"),
		leaseExpiredC: reg.Counter("sched.lease.expired"),
		retriedC:      reg.Counter("cluster.tasks.retried"),
		failedC:       reg.Counter("cluster.tasks.failed"),
		remoteTaskH:   reg.Histogram("sched.task.remote_ns"),
		batchItemsH:   reg.Histogram("sched.report.batch_items"),
		jRecordsC:     reg.Counter("sched.journal.records"),
		jBytesC:       reg.Counter("sched.journal.bytes"),
		jSyncsC:       reg.Counter("sched.journal.syncs"),
		jReplayedC:    reg.Counter("sched.journal.replayed"),
		epochGauge:    reg.Gauge("sched.epoch"),
		staleC:        reg.Counter("sched.epoch.stale"),
		tasks:         tasks,
		state:         make([]taskState, len(tasks)),
		done:          make(chan struct{}),
		start:         time.Now(),
	}
	m.res.Tasks = len(tasks)
	m.res.SplitTasks = splitCount
	// LIFO pending stack, seeded in reverse so initial leases go out in
	// task-generation order.
	m.pending = make([]int, len(tasks))
	for i := range tasks {
		m.pending[i] = len(tasks) - 1 - i
	}
	if cfg.Plan.DegreeFiltered {
		if cfg.Degree == nil {
			return nil, fmt.Errorf("sched: degree-filtered plan requires MasterConfig.Degree")
		}
		m.degrees = make([]int32, cfg.NumVertices)
		for v := 0; v < cfg.NumVertices; v++ {
			m.degrees[v] = int32(cfg.Degree(int64(v)))
		}
	}
	if cfg.Plan.Pattern.Labeled() {
		m.labels = make([]int64, cfg.NumVertices)
		for v := 0; v < cfg.NumVertices; v++ {
			m.labels[v] = cfg.LabelOf(int64(v))
		}
	}
	m.epoch = 1
	if cfg.JournalPath != "" {
		if err := m.openJournal(); err != nil {
			return nil, err
		}
	}
	m.epochGauge.Set(float64(m.epoch))
	m.res.Epoch = m.epoch

	m.listener = ln
	m.rpcSrv = rpc.NewServer()
	if err := m.rpcSrv.RegisterName("Sched", &schedService{m}); err != nil {
		m.closeJournalLocked()
		return nil, err
	}
	if m.doneCount == len(tasks) {
		// Nothing left to run: a zero-task plan, or a journal that
		// already holds every completion (crash after the last commit).
		m.finish(nil)
	}
	m.wg.Add(2)
	go m.acceptLoop()
	go m.expiryLoop()
	return m, nil
}

// openJournal opens (or creates) cfg.JournalPath, pins it to this job,
// replays any committed completions into the in-memory state, and
// stamps the new incarnation's epoch. Called from StartMaster before
// the listener exists, so no locking is needed.
func (m *Master) openJournal() error {
	l, rep, err := journal.Open(m.cfg.JournalPath, journal.Options{NoSync: m.cfg.JournalNoSync})
	if err != nil {
		return err
	}
	spec := &journal.JobSpec{
		Plan:        m.planBytes,
		NumVertices: m.cfg.NumVertices,
		Tau:         m.spec.Tau,
		Tasks:       len(m.tasks),
		OrderHash:   m.cfg.Ord.Fingerprint(),
	}
	if rep.Spec == nil {
		n, err := l.AppendSpec(spec)
		if err != nil {
			l.Close()
			return fmt.Errorf("sched: journal %s: %w", m.cfg.JournalPath, err)
		}
		m.journaled(1, n)
	} else if !rep.Spec.Equal(spec) {
		l.Close()
		return fmt.Errorf("sched: journal %s belongs to a different job (plan/graph/tau mismatch); refusing to resume", m.cfg.JournalPath)
	}
	for i := range rep.Completions {
		c := &rep.Completions[i]
		idx := int(c.TaskID)
		if idx < 0 || idx >= len(m.tasks) || m.state[idx].st == taskDone {
			// Out-of-range IDs cannot occur with a matching spec;
			// duplicates cannot occur with a correct writer. Skip
			// defensively either way — replay must not double-count.
			continue
		}
		m.state[idx].st = taskDone
		m.doneCount++
		m.res.Replayed++
		m.jReplayedC.Inc()
		m.res.Stats.Add(c.Stats)
		m.res.Matches += c.Stats.Matches
		m.res.Codes += c.Stats.Codes
		m.remoteTaskH.Record(c.DurationNs)
		if m.cfg.Emit != nil {
			for _, f := range c.Matches {
				if !m.cfg.Emit(f) {
					break
				}
			}
		}
		if m.cfg.EmitCode != nil {
			for _, code := range c.Codes {
				if !m.cfg.EmitCode(code) {
					break
				}
			}
		}
	}
	// Drop replayed tasks from the pending stack so they are never
	// leased again.
	live := m.pending[:0]
	for _, idx := range m.pending {
		if m.state[idx].st != taskDone {
			live = append(live, idx)
		}
	}
	m.pending = live
	m.epoch = rep.Epoch + 1
	n, err := l.AppendEpoch(m.epoch)
	if err != nil {
		l.Close()
		return fmt.Errorf("sched: journal %s: %w", m.cfg.JournalPath, err)
	}
	m.journaled(1, n)
	m.jl = l
	return nil
}

// journaled accounts for one journal append of records records and n
// bytes: one write and — unless JournalNoSync — one fsync.
func (m *Master) journaled(records, n int) {
	m.jRecordsC.Add(int64(records))
	m.jBytesC.Add(int64(n))
	if !m.cfg.JournalNoSync {
		m.jSyncsC.Inc()
	}
}

// closeJournalLocked closes the journal if one is open. Caller holds
// m.mu (or, during StartMaster, has exclusive access).
func (m *Master) closeJournalLocked() {
	if m.jl != nil {
		m.jl.Close()
		m.jl = nil
	}
}

// Addr returns the master's bound address.
func (m *Master) Addr() string { return m.listener.Addr().String() }

// Result returns a snapshot of the run's accounting so far — notably
// Epoch and Replayed, fixed at startup. The authoritative final result
// is the one Wait returns.
func (m *Master) Result() Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.res
}

// Wait blocks until the run completes (every task committed), fails, or
// ctx is done, and returns the result.
func (m *Master) Wait(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-m.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	res := m.res
	return &res, m.err
}

// Drain waits up to timeout, after the run has finished, for every
// worker to hang up: a worker disconnects once one of its calls has
// told it the run is done, so when no connection is left a Close
// severs no one mid-call — without it, a worker parked between polls
// when the master exits sees an EOF instead of a clean shutdown and
// retries a master that is gone. Waiting for the hang-up rather than
// for the Done reply to be produced matters: a reply is not on the wire
// yet when its handler returns. It reports whether every connection
// closed in time (a hung worker's never does).
func (m *Master) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		all := m.finished && len(m.conns) == 0
		m.mu.Unlock()
		if all {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops serving: the listener and every established connection
// are severed. A run still in flight fails with ErrMasterClosed, which
// in-flight workers observe as a transport error.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	if !m.finished {
		m.finishLocked(ErrMasterClosed)
	}
	err := m.listener.Close()
	for c := range m.conns {
		c.Close()
	}
	m.conns = nil
	m.mu.Unlock()
	close(m.quit)
	m.wg.Wait()
	m.mu.Lock()
	m.closeJournalLocked()
	m.mu.Unlock()
	return err
}

// ErrMasterClosed reports a run aborted by Master.Close.
var ErrMasterClosed = errors.New("sched: master closed before the run completed")

func (m *Master) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if m.cfg.WrapConn != nil {
			conn = m.cfg.WrapConn(conn)
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			conn.Close()
			return
		}
		if m.conns == nil {
			m.conns = make(map[net.Conn]struct{})
		}
		m.conns[conn] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.rpcSrv.ServeConn(conn)
			m.mu.Lock()
			delete(m.conns, conn)
			m.mu.Unlock()
		}()
	}
}

// expiryLoop scans for silent workers every LeaseDuration/4. A worker
// that fenceAfterSilentScans scans in a row find past its lease is
// fenced and its leases are re-queued.
func (m *Master) expiryLoop() {
	defer m.wg.Done()
	tick := m.cfg.LeaseDuration / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
			m.scanLeases()
		}
	}
}

func (m *Master) scanLeases() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.finished {
		return
	}
	now := time.Now()
	for _, w := range m.workers {
		if w.dead || now.Sub(w.lastSeen) <= m.cfg.LeaseDuration {
			continue
		}
		if w.silentScans++; w.silentScans < fenceAfterSilentScans {
			continue
		}
		m.fenceLocked(w)
		if m.finished {
			return
		}
	}
}

// fenceLocked declares w dead and re-queues everything it holds.
// Caller holds m.mu.
func (m *Master) fenceLocked(w *workerRec) {
	w.dead = true
	m.workersGauge.Add(-1)
	idxs := make([]int, 0, len(w.leased))
	for idx := range w.leased {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	w.leased = map[int]struct{}{}
	w.running = map[int]struct{}{}
	w.revoked = nil // the worker is fenced outright; no need to itemize
	for _, idx := range idxs {
		m.res.LeasesExpired++
		m.leaseExpiredC.Inc()
		m.requeueLocked(idx, fmt.Errorf("sched: worker %d lost task %d (lease expired)", w.id, idx))
		if m.finished {
			return
		}
	}
}

// requeueLocked gives task idx another attempt, or fails the run when
// the budget is spent. Caller holds m.mu.
func (m *Master) requeueLocked(idx int, cause error) {
	ts := &m.state[idx]
	if ts.st == taskDone {
		return
	}
	ts.attempts++
	if ts.attempts > m.spec.TaskRetries {
		m.res.TasksFailed++
		m.failedC.Inc()
		m.finishLocked(fmt.Errorf("sched: task start=%d failed after %d attempts: %w",
			m.tasks[idx].Start, ts.attempts, cause))
		return
	}
	m.res.TasksRetried++
	m.retriedC.Inc()
	ts.st = taskPending
	ts.worker = -1
	ts.stolen = false
	m.pending = append(m.pending, idx)
}

// finish / finishLocked complete the run exactly once.
func (m *Master) finish(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finishLocked(err)
}

func (m *Master) finishLocked(err error) {
	if m.finished {
		return
	}
	m.finished = true
	m.err = err
	m.res.Wall = time.Since(m.start)
	m.res.WorkersJoined = len(m.workers)
	close(m.done)
}

// ---- RPC handlers ----

func (s *schedService) Join(args *JoinArgs, reply *JoinReply) error {
	m := s.m
	m.mu.Lock()
	w := &workerRec{
		id:       len(m.workers),
		lastSeen: time.Now(),
		leased:   map[int]struct{}{},
		running:  map[int]struct{}{},
		spans:    &obs.Histogram{},
	}
	if len(args.StoreParts) > 0 && args.StoreNumParts > 0 {
		w.serves = make(map[int]struct{}, len(args.StoreParts))
		for _, p := range args.StoreParts {
			w.serves[p] = struct{}{}
		}
		w.numParts = args.StoreNumParts
	}
	m.workers = append(m.workers, w)
	m.workersGauge.Add(1)
	m.mu.Unlock()

	reply.WorkerID = w.id
	reply.Epoch = m.epoch
	reply.Plan = m.planBytes
	reply.NumVertices = m.cfg.NumVertices
	if !m.cfg.Ord.Identity() {
		reply.Ranks = m.cfg.Ord.Ranks()
	}
	reply.StoreAddrs = m.cfg.StoreAddrs
	reply.Degrees = m.degrees
	reply.Labels = m.labels
	reply.LeaseDuration = m.cfg.LeaseDuration
	reply.HeartbeatEvery = m.cfg.HeartbeatEvery
	reply.LeaseBatch = m.cfg.LeaseBatch
	reply.WantMatches = m.cfg.Emit != nil
	reply.WantCodes = m.cfg.EmitCode != nil
	reply.Spec = m.spec
	return nil
}

// touchLocked renews w's lease and clears its silent-scan count. Caller
// holds m.mu.
func (m *Master) touchLocked(w *workerRec) {
	w.lastSeen = time.Now()
	w.silentScans = 0
}

// workerFor resolves and validates a worker ID. Caller holds m.mu.
func (m *Master) workerForLocked(id int) (*workerRec, error) {
	if id < 0 || id >= len(m.workers) {
		return nil, fmt.Errorf("sched: unknown worker %d", id)
	}
	return m.workers[id], nil
}

// staleLocked fences a call from a previous master incarnation. It must
// run before the worker ID is even resolved: a restarted master assigns
// IDs from zero again, so an old incarnation's WorkerID may collide
// with a different live worker — touching any state keyed by it would
// corrupt the new incarnation's accounting. Caller holds m.mu.
func (m *Master) staleLocked(epoch uint64) bool {
	if epoch == m.epoch {
		return false
	}
	m.res.StaleCalls++
	m.staleC.Inc()
	return true
}

// syncWorkerLocked is the part every call from a live worker shares: it
// refreshes w's running set from the call's held-set snapshot and hands
// back the revocations accumulated since its previous call. Only tasks
// the worker still holds count as running (a stolen task it reports
// running is already someone else's). Caller holds m.mu.
func (m *Master) syncWorkerLocked(w *workerRec, running []int64) (revoked []int64) {
	w.running = make(map[int]struct{}, len(running))
	for _, id := range running {
		if _, held := w.leased[int(id)]; held {
			w.running[int(id)] = struct{}{}
		}
	}
	revoked, w.revoked = w.revoked, nil
	return revoked
}

func (s *schedService) Lease(args *LeaseArgs, reply *LeaseReply) error {
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.staleLocked(args.Epoch) {
		reply.Stale = true
		return nil
	}
	w, err := m.workerForLocked(args.WorkerID)
	if err != nil {
		return err
	}
	if w.dead {
		reply.Fenced = true
		return nil
	}
	if m.finished {
		reply.Done = true
		return nil
	}
	m.touchLocked(w)
	reply.Revoked = m.syncWorkerLocked(w, args.Running)
	max := args.Max
	if max <= 0 || max > m.cfg.LeaseBatch {
		max = m.cfg.LeaseBatch
	}
	// Compact stale queue entries (stolen/re-leased elsewhere) so the
	// locality pick only weighs genuinely pending tasks.
	live := m.pending[:0]
	for _, idx := range m.pending {
		if m.state[idx].st == taskPending {
			live = append(live, idx)
		}
	}
	m.pending = live
	var local func(task int) bool
	if len(w.serves) > 0 {
		local = func(idx int) bool {
			_, ok := w.serves[int(m.tasks[idx].Start)%w.numParts]
			return ok
		}
	}
	var chosen []int
	chosen, m.pending = leasePick(m.pending, max, local)
	for _, idx := range chosen {
		ts := &m.state[idx]
		ts.st = taskLeased
		ts.worker = w.id
		w.leased[idx] = struct{}{}
		reply.Tasks = append(reply.Tasks, WireTask{ID: int64(idx), Task: m.tasks[idx]})
	}
	if len(reply.Tasks) == 0 {
		// Queue empty but the run is live: try to steal backlog from
		// the worst straggler.
		reply.Tasks = m.stealLocked(w, max)
	}
	if len(reply.Tasks) == 0 {
		// Nothing changes for this worker until a task somewhere finishes
		// or fails — the last one ends the run, and Drain then waits for
		// this worker to hear of it: poll again after about one task, at
		// most a heartbeat.
		reply.Backoff = m.cfg.HeartbeatEvery
		if span := m.remoteTaskH.Snapshot(); span.Count > 0 && time.Duration(span.Mean) < reply.Backoff {
			reply.Backoff = time.Duration(span.Mean)
		}
	} else {
		m.leasedC.Add(int64(len(reply.Tasks)))
	}
	return nil
}

// leasePick selects up to max tasks to lease from the LIFO pending
// stack (served from the tail: fresh re-queues drain first). When the
// worker advertises store locality, tasks whose start vertex lives in a
// partition it serves are taken first — the data is already on that
// machine, so the lease costs no remote adjacency traffic — still in
// LIFO order within each class. The pick is work-conserving: when local
// tasks cannot fill the batch, non-local ones top it up, so locality
// never idles a worker. Returns the chosen task indexes in lease order
// and the remaining stack (original order, chosen entries removed).
func leasePick(pending []int, max int, local func(task int) bool) (chosen, rest []int) {
	if max <= 0 || len(pending) == 0 {
		return nil, pending
	}
	if local == nil {
		cut := len(pending) - max
		if cut < 0 {
			cut = 0
		}
		for i := len(pending) - 1; i >= cut; i-- {
			chosen = append(chosen, pending[i])
		}
		return chosen, pending[:cut]
	}
	taken := make([]bool, len(pending))
	for i := len(pending) - 1; i >= 0 && len(chosen) < max; i-- {
		if local(pending[i]) {
			chosen = append(chosen, pending[i])
			taken[i] = true
		}
	}
	for i := len(pending) - 1; i >= 0 && len(chosen) < max; i-- {
		if !taken[i] {
			chosen = append(chosen, pending[i])
			taken[i] = true
		}
	}
	rest = pending[:0]
	for i, idx := range pending {
		if !taken[i] {
			rest = append(rest, idx)
		}
	}
	return chosen, rest
}

// stealLocked reassigns up to max tasks from the straggler with the
// largest expected drain time to thief. Backlog is a victim's leased
// tasks minus those its last call reported running and those it stole
// itself (a stolen task sits at the end of a queue that had run dry: it
// is about to start, and stealing it again would race its new holder);
// expected drain time weights that backlog by the victim's mean
// observed task span (the obs task-span histogram), so a slow worker
// with three queued tasks outranks a fast one with four. Caller holds
// m.mu.
func (m *Master) stealLocked(thief *workerRec, max int) []WireTask {
	var victim *workerRec
	var victimScore float64
	var backlog []int
	for _, w := range m.workers {
		if w.dead || w.id == thief.id {
			continue
		}
		var idxs []int
		for idx := range w.leased {
			if _, running := w.running[idx]; !running && !m.state[idx].stolen {
				idxs = append(idxs, idx)
			}
		}
		if len(idxs) == 0 {
			continue
		}
		// Mean task span, defaulting to 1ns so a worker that has never
		// completed a task still ranks by backlog size alone.
		mean := 1.0
		if snap := w.spans.Snapshot(); snap.Count > 0 {
			mean = snap.Mean
		}
		score := float64(len(idxs)) * mean
		if victim == nil || score > victimScore {
			victim, victimScore, backlog = w, score, idxs
		}
	}
	if victim == nil {
		return nil
	}
	// Even the two out: move half the difference between what the victim
	// and the thief hold, so the thief is never left with more than the
	// victim. Only backlog moves, newest leases first — those are coldest
	// on the victim.
	take := (len(victim.leased) - len(thief.leased)) / 2
	if take > len(backlog) {
		take = len(backlog)
	}
	if take > max {
		take = max
	}
	if take <= 0 {
		return nil
	}
	sort.Sort(sort.Reverse(sort.IntSlice(backlog)))
	var out []WireTask
	for _, idx := range backlog[:take] {
		delete(victim.leased, idx)
		victim.revoked = append(victim.revoked, int64(idx))
		ts := &m.state[idx]
		ts.worker = thief.id
		ts.stolen = true
		thief.leased[idx] = struct{}{}
		m.res.Steals++
		m.stealsC.Inc()
		out = append(out, WireTask{ID: int64(idx), Task: m.tasks[idx], Stolen: true})
	}
	return out
}

// Report commits a batch of finished attempts. The whole batch is
// validated before any state changes; failed attempts re-queue, repeats
// are dropped, and the fresh completions are journaled with one append
// (one write, one fsync) and only then committed, in batch order, and
// acknowledged. A batch of one is the same path.
func (s *schedService) Report(args *ReportArgs, reply *ReportReply) error {
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.staleLocked(args.Epoch) {
		reply.Stale = true
		return nil
	}
	w, err := m.workerForLocked(args.WorkerID)
	if err != nil {
		return err
	}
	for i := range args.Attempts {
		if id := args.Attempts[i].TaskID; id < 0 || id >= int64(len(m.tasks)) {
			return fmt.Errorf("sched: unknown task %d", id)
		}
	}
	if !w.dead {
		m.touchLocked(w)
	}
	m.batchItemsH.Record(int64(len(args.Attempts)))

	// Classify. A fresh completion is marked done right away so a repeat
	// of the same task later in the batch drops as a duplicate; it counts
	// for nothing until the journal holds it.
	reply.Accepted = make([]bool, len(args.Attempts))
	var fresh []int // indexes into args.Attempts
	for i := range args.Attempts {
		a := &args.Attempts[i]
		idx := int(a.TaskID)
		delete(w.leased, idx)
		ts := &m.state[idx]
		switch {
		case a.Err != "":
			// A failed attempt re-queues the task — unless it is no longer
			// this worker's lease (committed elsewhere, stolen, or already
			// re-queued by a fence; the current holder owns the outcome).
			if ts.st == taskLeased && ts.worker == w.id && !m.finished {
				m.requeueLocked(idx, errors.New(a.Err))
			}
		case ts.st == taskDone:
			// Exactly-once: a second completion (stolen or expired task
			// that finished anyway, or a worker retrying a report whose
			// reply was lost in transit) is dropped, not double-counted.
			m.res.DuplicateReports++
			m.duplicateC.Inc()
		default:
			ts.st = taskDone
			fresh = append(fresh, i)
		}
	}

	if m.jl != nil && len(fresh) > 0 {
		// Journal the completions before committing them in memory. A
		// crash after the append replays these tasks as done and the
		// worker's retried report drops as duplicates; a crash before it
		// re-queues them. Either way: exactly once. An append failure
		// means commits can no longer be made durable — fail the run
		// loudly, acknowledging nothing, rather than silently degrade.
		recs := make([]*journal.Completion, len(fresh))
		for i, at := range fresh {
			a := &args.Attempts[at]
			recs[i] = &journal.Completion{
				TaskID:     a.TaskID,
				DurationNs: a.DurationNs,
				Stats:      a.Stats,
				Matches:    a.Matches,
				Codes:      a.Codes,
			}
		}
		//benulint:lock the fsync under m.mu IS the commit protocol: journal order must match commit order
		n, jerr := m.jl.AppendCompletions(recs)
		if jerr != nil {
			m.finishLocked(fmt.Errorf("sched: journal %s: %w", m.cfg.JournalPath, jerr))
			reply.Done = m.finished
			return nil
		}
		m.journaled(len(recs), n)
	}

	for _, at := range fresh {
		a := &args.Attempts[at]
		reply.Accepted[at] = true
		m.doneCount++
		m.completedC.Inc()
		w.spans.Record(a.DurationNs)
		m.remoteTaskH.Record(a.DurationNs)
		m.res.Stats.Add(a.Stats)
		m.res.Matches += a.Stats.Matches
		m.res.Codes += a.Stats.Codes
		if m.cfg.Emit != nil {
			for _, f := range a.Matches {
				if !m.cfg.Emit(f) {
					break
				}
			}
		}
		if m.cfg.EmitCode != nil {
			for _, c := range a.Codes {
				if !m.cfg.EmitCode(c) {
					break
				}
			}
		}
	}
	if m.doneCount == len(m.tasks) {
		m.finishLocked(nil)
	}
	reply.Revoked = m.syncWorkerLocked(w, args.Running)
	reply.Done = m.finished
	return nil
}

func (s *schedService) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.staleLocked(args.Epoch) {
		reply.Stale = true
		return nil
	}
	w, err := m.workerForLocked(args.WorkerID)
	if err != nil {
		return err
	}
	if w.dead {
		reply.Fenced = true
		return nil
	}
	m.heartbeatsC.Inc()
	m.touchLocked(w)
	reply.Revoked = m.syncWorkerLocked(w, args.Running)
	reply.Done = m.finished
	return nil
}
