package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"benu/internal/cluster"
	"benu/internal/exec"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/resilience"
)

// WorkerConfig parameterizes one worker machine.
type WorkerConfig struct {
	// Threads is the number of working threads (≥ 1). Default 2.
	Threads int
	// CacheBytes is the machine's DB cache capacity (0 disables).
	CacheBytes int64
	// Store overrides the adjacency store. nil dials the storage nodes
	// the master names in JoinReply.StoreAddrs.
	Store kv.Store
	// Name optionally labels the worker in logs and errors.
	Name string
	// StoreParts / StoreNumParts advertise which adjacency-store hash
	// partitions this machine serves locally (see JoinArgs); the master
	// then prefers leasing it tasks starting in those partitions.
	StoreParts    []int
	StoreNumParts int
	// Retry makes the worker survive control-plane blips: every
	// master RPC is retried under this policy (capped exponential
	// backoff, optional per-attempt Timeout), and a transport error or
	// a fenced/stale reply tears the session down and re-Joins —
	// rejoining a restarted master under its new epoch, with only
	// still-pending tasks re-leased. nil disables all of it: the first
	// transport error stops the worker (the pre-journal behavior, which
	// tests that orchestrate failures directly still rely on).
	Retry *resilience.Policy
	// Obs selects the worker-local metrics registry (exec.*, source.*,
	// cache.* names, plus the cluster.task spans). nil means
	// obs.Default().
	Obs *obs.Registry
}

// ErrFenced reports that the master declared this worker dead (its
// lease expired) and its remaining work was re-queued elsewhere.
var ErrFenced = errors.New("sched: worker fenced by master (lease expired)")

// errStaleEpoch is the retryable error a stale/fenced reply turns into
// inside the call layer: the session is gone, the next attempt rejoins.
var errStaleEpoch = errors.New("sched: session fenced (master restarted or lease expired)")

// session is one join with one master incarnation: the connection, the
// identity it assigned, and the epoch every call echoes. A transport
// error or a stale reply kills the whole session; the replacement gets
// a fresh generation number so work leased under the old one can be
// told apart.
type session struct {
	client *rpc.Client
	id     int
	epoch  uint64
	gen    int
}

// leasedTask is a task plus the session generation it was leased under.
type leasedTask struct {
	WireTask
	gen int
}

// Worker is one joined worker machine: a dispatcher leasing tasks ahead
// of need into a local queue, Threads executor threads draining it into
// an outbox of finished attempts, a reporter shipping the outbox to the
// master one batch per round trip, and a heartbeat loop renewing the
// lease. Construct with StartWorker; the worker runs in the background
// until the master reports the run done, the connection drops, or
// Close/Shutdown/Kill.
type Worker struct {
	name       string
	masterAddr string
	joinArgs   JoinArgs
	planBytes  []byte
	reg        *obs.Registry

	retrier     *resilience.Retrier // nil: no retries, no rejoin
	retryCtx    context.Context
	retryCancel context.CancelFunc
	rejoinsC    *obs.Counter
	dropStaleC  *obs.Counter

	src       *exec.CachedSource
	eopts     exec.Options // what every executor of this machine shares
	dialed    *kv.Client   // non-nil when we own the store connection
	heartbeat time.Duration
	threads   int
	// leaseCap is the most tasks ever queued locally: the master's
	// LeaseBatch, i.e. what one Lease call can hand out.
	leaseCap int

	quit      chan struct{}
	quitOnce  sync.Once
	drain     chan struct{}
	drainOnce sync.Once
	done      chan struct{}
	// pulled wakes the dispatcher when a thread takes a task off the
	// local queue. Capacity 1: a pending wake-up covers any number of
	// pulls.
	pulled chan struct{}

	// rejoinMu serializes re-Join attempts so concurrent loops hitting
	// the same dead session produce one replacement, not three.
	rejoinMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond // on mu: the outbox gained room, gained an attempt, or closed
	sess    *session   // nil between a teardown and the next rejoin
	gen     int
	id      int  // last assigned WorkerID, for ID()
	killed  bool // set by Kill: suppress graceful teardown reporting
	err     error
	revoked map[int64]struct{}
	// queue lists, in lease order, the tasks in the local queue that no
	// thread has claimed yet.
	queue []int64
	// held is every task executing on a thread, or finished and not yet
	// acknowledged (in the outbox or in a report in flight).
	held map[int64]struct{}
	// outbox holds finished attempts until the reporter takes them — all
	// of them at once, so a batch is whatever finished during the
	// previous report's round trip.
	outbox       []Attempt
	outboxBytes  int
	outboxClosed bool // the threads have exited: nothing more will be enqueued
	reporterGone bool // the reporter has exited: enqueued attempts would never ship
	// The two measurements leasing ahead is sized from: the round trips
	// of the Lease calls that returned tasks, and the executed tasks'
	// spans.
	leaseNs, spanNs int64
	stats           exec.Stats
	tasks           int
}

// The outbox is bounded in attempts and in estimated wire bytes; a
// thread that finishes a task while it is full blocks until the
// reporter empties it. An attempt bigger than the byte bound is admitted
// only into an empty outbox, so it travels alone.
const (
	outboxItems = 64
	outboxBytes = 1 << 20
)

// StartWorker dials the master at addr, joins, and starts executing.
func StartWorker(addr string, cfg WorkerConfig) (_ *Worker, err error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 2
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sched: dial master %s: %w", addr, err)
	}
	client := rpc.NewClient(conn)
	defer func() {
		if err != nil {
			client.Close()
		}
	}()
	var join JoinReply
	args := JoinArgs{Name: cfg.Name, StoreParts: cfg.StoreParts, StoreNumParts: cfg.StoreNumParts}
	if err := client.Call("Sched.Join", &args, &join); err != nil {
		return nil, fmt.Errorf("sched: join: %w", err)
	}
	pl, err := plan.UnmarshalPlan(join.Plan)
	if err != nil {
		return nil, err
	}
	prog, err := exec.Compile(pl)
	if err != nil {
		return nil, err
	}
	// An identity order arrives as no ranks at all, so the vertex count is
	// bounded here, not by the payload: per-vertex state (bitsets, V(G))
	// is sized by it.
	if join.NumVertices <= 0 || join.NumVertices > graph.MaxEdgeListVertexID+1 {
		return nil, fmt.Errorf("sched: join sent %d vertices", join.NumVertices)
	}
	ord := graph.IdentityOrder(join.NumVertices)
	if join.Ranks != nil {
		if ord, err = graph.OrderFromRanks(join.Ranks); err != nil {
			return nil, err
		}
	}
	switch {
	case ord.Len() != join.NumVertices:
		return nil, fmt.Errorf("sched: join sent %d ranks for %d vertices", ord.Len(), join.NumVertices)
	case len(join.Degrees) != 0 && len(join.Degrees) != join.NumVertices:
		return nil, fmt.Errorf("sched: join sent %d degrees for %d vertices", len(join.Degrees), join.NumVertices)
	case pl.Pattern.Labeled() && len(join.Labels) != join.NumVertices:
		return nil, fmt.Errorf("sched: labeled plan but join sent %d labels for %d vertices", len(join.Labels), join.NumVertices)
	}

	store := cfg.Store
	var dialed *kv.Client
	if store == nil {
		if len(join.StoreAddrs) == 0 {
			return nil, fmt.Errorf("sched: no WorkerConfig.Store and the master names no storage nodes")
		}
		dialed, err = kv.Dial(join.StoreAddrs, join.NumVertices)
		if err != nil {
			return nil, err
		}
		store = dialed
	}
	// The machine's settings come from the master's Spec alone, and the
	// oracles from the arrays it sends only when the plan needs them.
	var degreeOf func(v int64) int
	if degrees := join.Degrees; len(degrees) > 0 {
		degreeOf = func(v int64) int { return int(degrees[v]) }
	}
	var labelOf func(v int64) int64
	if labels := join.Labels; len(labels) > 0 {
		labelOf = func(v int64) int64 { return labels[v] }
	}
	src, eopts := cluster.NewMachine(nil, store, cfg.CacheBytes, join.Spec, reg, 0, degreeOf, labelOf)

	w := &Worker{
		name:       cfg.Name,
		masterAddr: addr,
		joinArgs:   args,
		planBytes:  join.Plan,
		reg:        reg,
		rejoinsC:   reg.Counter("sched.worker.rejoins"),
		dropStaleC: reg.Counter("sched.worker.dropped_stale"),
		src:        src,
		eopts:      eopts,
		dialed:     dialed,
		heartbeat:  join.HeartbeatEvery,
		threads:    cfg.Threads,
		leaseCap:   join.LeaseBatch,
		quit:       make(chan struct{}),
		drain:      make(chan struct{}),
		done:       make(chan struct{}),
		pulled:     make(chan struct{}, 1),
		gen:        1,
		id:         join.WorkerID,
		revoked:    map[int64]struct{}{},
		held:       map[int64]struct{}{},
	}
	w.cond = sync.NewCond(&w.mu)
	if w.leaseCap <= 0 {
		w.leaseCap = 2 * cfg.Threads
	}
	if w.heartbeat <= 0 {
		w.heartbeat = 250 * time.Millisecond
	}
	w.sess = &session{client: client, id: join.WorkerID, epoch: join.Epoch, gen: 1}
	w.retryCtx, w.retryCancel = context.WithCancel(context.Background())
	if cfg.Retry != nil {
		w.retrier = resilience.NewRetrier(*cfg.Retry, reg)
	}
	go w.run(prog, ord, join)
	return w, nil
}

// ID returns the worker's master-assigned identity (the latest one,
// when rejoining has re-identified it).
func (w *Worker) ID() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Wait blocks until the worker exits (run done, fenced, killed, or a
// transport error) and returns why. A clean exit returns nil.
func (w *Worker) Wait() error {
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Stats returns the executor counters this worker committed so far and
// the number of tasks it completed.
func (w *Worker) Stats() (exec.Stats, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats, w.tasks
}

// Close shuts the worker down gracefully: it stops leasing, finishes
// the tasks its threads are executing, reports every finished attempt,
// and disconnects. The master re-queues anything it never reported.
func (w *Worker) Close() error {
	w.stop(nil)
	<-w.done
	return nil
}

// Shutdown drains the worker: it stops leasing new tasks but — unlike
// Close — lets every task already leased (queued or executing) finish
// and report before disconnecting, so a SIGTERM'd worker hands the
// master completed work, not an expired lease. A drain with nothing
// left to execute or report also ends any retry still in progress, so a
// worker whose master is gone exits instead of retrying it. Blocks
// until the worker has exited.
func (w *Worker) Shutdown() error {
	w.drainOnce.Do(func() { close(w.drain) })
	w.finishIfDrained()
	<-w.done
	return nil
}

// Kill crashes the worker: the master connection is severed immediately
// and nothing in flight is reported — the failure mode lease expiry
// exists for. Chaos tests call this mid-task.
func (w *Worker) Kill() {
	w.mu.Lock()
	w.killed = true
	s := w.sess
	w.mu.Unlock()
	if s != nil {
		s.client.Close() // severs the TCP conn; in-flight RPCs fail
	}
	w.retryCancel() // abort backoff sleeps and rejoin attempts
	w.stop(errors.New("sched: worker killed"))
}

// stop requests shutdown with the given cause. The first call decides
// how the worker exits — nil is a clean exit — and errors the loops run
// into while winding down afterwards are not the cause of anything.
func (w *Worker) stop(cause error) {
	w.quitOnce.Do(func() {
		w.mu.Lock()
		w.err = cause
		w.mu.Unlock()
		close(w.quit)
	})
}

// finish ends the worker cleanly when nothing it could still do
// matters: the master said the run is over, or a drain ran dry. Unlike
// stop alone it also cancels the retry context, so no loop keeps
// retrying — for the whole rejoin window — a master that has exited.
func (w *Worker) finish() {
	w.stop(nil)
	w.retryCancel()
}

// finishIfDrained finishes a draining worker once it has no task
// queued, executing, or awaiting acknowledgement.
func (w *Worker) finishIfDrained() {
	if !w.draining() {
		return
	}
	w.mu.Lock()
	dry := len(w.queue) == 0 && len(w.held) == 0
	w.mu.Unlock()
	if dry {
		w.finish()
	}
}

func (w *Worker) stopped() bool {
	select {
	case <-w.quit:
		return true
	default:
		return false
	}
}

func (w *Worker) draining() bool {
	select {
	case <-w.drain:
		return true
	default:
		return false
	}
}

func (w *Worker) isKilled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.killed
}

// session returns the current session, nil if it was torn down.
func (w *Worker) session() *session {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sess
}

// teardown retires s: the connection is closed and, if s is still the
// current session, the worker is left session-less until rejoin.
func (w *Worker) teardown(s *session) {
	w.mu.Lock()
	if w.sess == s {
		w.sess = nil
	}
	w.mu.Unlock()
	s.client.Close()
}

// rejoin establishes a replacement session: dial, Join (under whatever
// epoch the master now runs), bump the generation, and forget the
// revocations, which referred to leases that died with the old session
// (the held set stays: those tasks are still executing or unreported,
// and the master ignores held IDs it has not leased to this identity).
// Returns a retryable error on connection failure (the master may still
// be restarting) and a permanent one when the worker is done for
// (killed, or the master now serves a different job).
func (w *Worker) rejoin() (*session, error) {
	w.rejoinMu.Lock()
	defer w.rejoinMu.Unlock()
	w.mu.Lock()
	if w.sess != nil { // another loop already rejoined
		s := w.sess
		w.mu.Unlock()
		return s, nil
	}
	killed := w.killed
	w.mu.Unlock()
	if killed {
		return nil, resilience.Permanent(errors.New("sched: worker killed"))
	}
	conn, err := net.Dial("tcp", w.masterAddr)
	if err != nil {
		return nil, fmt.Errorf("sched: redial master %s: %w", w.masterAddr, err)
	}
	client := rpc.NewClient(conn)
	var join JoinReply
	args := w.joinArgs
	//benulint:lock rejoinMu exists to single-flight this RPC: concurrent loops must wait, not race a second Join
	if err := client.Call("Sched.Join", &args, &join); err != nil {
		client.Close()
		return nil, fmt.Errorf("sched: rejoin: %w", err)
	}
	if !bytes.Equal(join.Plan, w.planBytes) {
		client.Close()
		return nil, resilience.Permanent(fmt.Errorf("sched: master at %s now serves a different job", w.masterAddr))
	}
	w.mu.Lock()
	w.gen++
	w.id = join.WorkerID
	w.sess = &session{client: client, id: join.WorkerID, epoch: join.Epoch, gen: w.gen}
	w.revoked = map[int64]struct{}{}
	s := w.sess
	w.mu.Unlock()
	w.rejoinsC.Inc()
	return s, nil
}

// wireReply lets the call layer see epoch fencing uniformly across
// reply types.
type wireReply interface{ staleEpoch() bool }

func (r *LeaseReply) staleEpoch() bool     { return r.Stale }
func (r *ReportReply) staleEpoch() bool    { return r.Stale }
func (r *HeartbeatReply) staleEpoch() bool { return r.Stale }

// callOnce performs one RPC attempt bounded by ctx. On ctx expiry the
// call is abandoned but may still land on the master — which is exactly
// how a retried Report becomes a duplicate delivery of its whole batch;
// the master's by-task-ID dedup is what makes that safe.
func callOnce(ctx context.Context, c *rpc.Client, method string, args, reply any) error {
	call := c.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case done := <-call.Done:
		return done.Error
	}
}

// callSched performs one logical RPC against the master. mk builds the
// arguments for whichever session the attempt runs under (identity and
// epoch change across rejoins). Without a retry policy it is a plain
// call on the current session — any failure is the caller's problem,
// as before journaling existed. With one, transport errors and
// stale/fenced replies tear the session down, rejoin, and retry under
// the policy's budget; an rpc.ServerError is an application error from
// a live master and is never retried. Returns the reply and the
// session generation that produced it.
func callSched[R any](w *Worker, method string, mk func(id int, epoch uint64) any) (*R, int, error) {
	if w.retrier == nil {
		s := w.session()
		if s == nil {
			return nil, 0, errStaleEpoch
		}
		reply := new(R)
		if err := s.client.Call(method, mk(s.id, s.epoch), reply); err != nil {
			return nil, s.gen, err
		}
		if sr, ok := any(reply).(wireReply); ok && sr.staleEpoch() {
			return nil, s.gen, errStaleEpoch
		}
		return reply, s.gen, nil
	}
	var out *R
	var gen int
	err := w.retrier.Do(w.retryCtx, func(ctx context.Context) error {
		s := w.session()
		if s == nil {
			var rerr error
			if s, rerr = w.rejoin(); rerr != nil {
				return rerr
			}
		}
		reply := new(R)
		if err := callOnce(ctx, s.client, method, mk(s.id, s.epoch), reply); err != nil {
			if _, ok := err.(rpc.ServerError); ok {
				// The master answered: the connection is healthy and
				// the request itself was rejected. Retrying cannot help.
				return resilience.Permanent(err)
			}
			// Transport failure (or attempt timeout): assume the
			// session is gone and rejoin on the next attempt.
			w.teardown(s)
			return err
		}
		if sr, ok := any(reply).(wireReply); ok && sr.staleEpoch() {
			w.teardown(s)
			return errStaleEpoch
		}
		out, gen = reply, s.gen
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, gen, nil
}

// run is the worker body: a dispatcher leasing into taskCh, Threads
// executor goroutines draining it into the outbox, the reporter
// shipping the outbox, and a heartbeat ticker.
func (w *Worker) run(prog *exec.Program, ord *graph.TotalOrder, join JoinReply) {
	defer close(w.done)
	// Buffered to the lease cap: the dispatcher leases ahead of the
	// threads so none of them sits out a Lease round trip, and it never
	// holds more than one Lease call can hand out.
	taskCh := make(chan leasedTask, w.leaseCap)

	var tg sync.WaitGroup
	for th := 0; th < w.threads; th++ {
		tg.Add(1)
		go func() {
			defer tg.Done()
			w.threadLoop(prog, ord, join, taskCh)
		}()
	}

	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		w.reportLoop()
	}()

	var hg sync.WaitGroup
	hg.Add(1)
	go func() {
		defer hg.Done()
		w.heartbeatLoop()
	}()

	// The dispatcher has an executor of its own. It runs no task: between
	// Lease calls it computes each lease window's first-level frontier.
	opts := w.eopts
	opts.TriangleCacheEntries = 0
	w.dispatchLoop(taskCh, exec.NewExecutor(prog, w.src, join.NumVertices, ord, opts))
	close(taskCh)
	tg.Wait()
	// Every attempt that will ever finish is in the outbox: let the
	// reporter ship what is left and exit.
	w.mu.Lock()
	w.outboxClosed = true
	w.mu.Unlock()
	w.cond.Broadcast()
	rg.Wait()
	w.stop(nil) // release the heartbeater
	hg.Wait()
	// The source is settled: publish this machine's cache and wire totals,
	// the series cluster.Run publishes for its simulated machines.
	cluster.PublishMachines(w.reg, []cluster.WorkerStats{{
		Cache:   w.src.Cache().Stats(),
		RemoteQ: w.src.RemoteQueries(),
		RemoteB: w.src.RemoteBytes(),
		RemoteT: w.src.RemoteTrips(),
	}})
	if w.dialed != nil {
		w.dialed.Close()
	}
	if s := w.session(); s != nil {
		s.client.Close()
	}
	w.retryCancel()
}

// aheadLocked is how many tasks the threads start during a Lease round
// trip: Threads × round trip ÷ mean task span, with the mean round trip
// counted twice because its tail is long (a call queues behind the
// journal fsync under the master's lock). Zero for tasks much longer
// than a round trip, and until both have been measured. Two things are
// sized from it. The dispatcher refills the local queue once half the
// lease depth is free, so that half must outlast a round trip: the depth
// is 2×(ahead+Threads) — for heavy tasks the fixed 2×Threads batch a
// worker leased before it leased ahead — capped at what one Lease call
// hands out. And the first ahead queued tasks are reported as Running:
// the threads will have started them before a revocation could arrive,
// so stealing them would only duplicate work. Caller holds w.mu.
func (w *Worker) aheadLocked() int {
	if w.leaseNs == 0 || w.spanNs == 0 {
		return 0
	}
	ahead := int64(w.threads) * 2 * w.leaseNs / w.spanNs
	if ahead > int64(w.leaseCap) {
		return w.leaseCap
	}
	return int(ahead)
}

// smooth folds sample into an exponentially weighted mean (weight 1/8;
// the first sample seeds it).
func smooth(mean, sample int64) int64 {
	if mean == 0 {
		return sample
	}
	return mean + (sample-mean)/8
}

// dispatchLoop keeps the local queue filled to the lease depth and hands
// each lease batch to the source's window prefetch — start vertices, then
// the first-level frontier the frontier executor computes from them, when
// the source prefetches — before the threads see its tasks. It returns on
// shutdown, drain (graceful: queued tasks still execute and report),
// fencing without a retry policy, or the run completing.
func (w *Worker) dispatchLoop(taskCh chan<- leasedTask, frontier *exec.Executor) {
	empty := uint(0) // consecutive Lease replies without tasks
	for {
		if w.stopped() || w.draining() {
			return
		}
		w.mu.Lock()
		depth := 2 * (w.aheadLocked() + w.threads)
		if depth > w.leaseCap {
			depth = w.leaseCap
		}
		room := depth - len(w.queue)
		w.mu.Unlock()
		if 2*room < depth {
			// More than half the depth is still queued: wait for a pull.
			select {
			case <-w.pulled:
			case <-w.drain:
			case <-w.quit:
			}
			continue
		}
		start := time.Now()
		reply, gen, err := callSched[LeaseReply](w, "Sched.Lease", func(id int, epoch uint64) any {
			return &LeaseArgs{WorkerID: id, Max: room, Epoch: epoch, Running: w.heldIDs()}
		})
		if err != nil {
			w.stop(fmt.Errorf("sched: lease: %w", err))
			return
		}
		if reply.Fenced {
			if w.retrier == nil {
				w.stop(ErrFenced)
				return
			}
			// Fenced but resilient: our leases are re-queued, so rejoin
			// as a fresh worker and keep pulling.
			if s := w.session(); s != nil && s.gen == gen {
				w.teardown(s)
			}
			continue
		}
		if reply.Done {
			w.finish()
			return
		}
		w.mu.Lock()
		if len(reply.Tasks) > 0 {
			empty = 0
			w.leaseNs = smooth(w.leaseNs, time.Since(start).Nanoseconds())
		}
		w.revokeLocked(reply.Revoked)
		for _, t := range reply.Tasks {
			// A fresh lease supersedes an earlier revocation of the task.
			delete(w.revoked, t.ID)
			w.queue = append(w.queue, t.ID)
		}
		w.mu.Unlock()
		// The lease batch is this machine's task window: one store batch
		// per partition for its start vertices and as few for its
		// first-level frontier, before the threads see the tasks. A task
		// stolen or revoked afterwards has cost its start list and its
		// admitted share of the frontier.
		w.src.PrefetchWindow(frontier, len(reply.Tasks), func(i int) exec.Task { return reply.Tasks[i].Task })
		for _, t := range reply.Tasks {
			taskCh <- leasedTask{WireTask: t, gen: gen} // never blocks: len(queue) ≤ depth ≤ cap(taskCh)
		}
		if len(reply.Tasks) == 0 {
			// Nothing to lease right now. Ask again after the suggested
			// back-off, doubled for every empty reply in a row up to the
			// heartbeat interval (floor 1ms: never spin on the master) —
			// or as soon as a thread pulls, because the fewer tasks a
			// worker holds the more a steal may give it.
			backoff := reply.Backoff
			if backoff < time.Millisecond {
				backoff = time.Millisecond
			}
			if backoff <<= empty; backoff < w.heartbeat {
				empty++
			} else {
				backoff = w.heartbeat
			}
			select {
			case <-time.After(backoff):
			case <-w.pulled:
			case <-w.drain:
			case <-w.quit:
			}
		}
	}
}

// threadLoop is one executor thread: run each task, buffer its
// emissions, hand the finished attempt to the outbox, start the next.
func (w *Worker) threadLoop(prog *exec.Program, ord *graph.TotalOrder, join JoinReply, taskCh <-chan leasedTask) {
	eopts := w.eopts
	var held cluster.Emissions
	held.Capture(&eopts, join.WantMatches, join.WantCodes)
	e := exec.NewExecutor(prog, w.src, join.NumVertices, ord, eopts)

	for wt := range taskCh {
		if !w.claim(wt) {
			continue
		}
		sp := w.reg.StartSpan("cluster.task")
		stats, err := e.Run(wt.Task)
		d := sp.End()
		matches, codes := held.Take() // the attempt owns them now
		if w.stopped() && w.isKilled() {
			return // crashed: report nothing, let the lease expire
		}
		a := Attempt{TaskID: wt.ID, DurationNs: d.Nanoseconds()}
		if err != nil {
			a.Err = err.Error()
		} else {
			a.Stats, a.Matches, a.Codes = stats, matches, codes
		}
		w.enqueue(a)
	}
}

// claim takes wt off the local queue's list and decides whether it
// still runs: not after a stop, not when the master revoked it (stolen
// from our backlog), and not when it was leased under a session that
// has since died — the master (old or new incarnation) already
// considers that lease lost and will re-queue the task, so running it
// here would only manufacture a duplicate. A task that runs joins the
// held set in the same step, so it is never neither queued nor held.
func (w *Worker) claim(wt leasedTask) bool {
	w.mu.Lock()
	for i, id := range w.queue { // at or next to the front
		if id == wt.ID {
			w.queue = append(w.queue[:i], w.queue[i+1:]...)
			break
		}
	}
	_, revoked := w.revoked[wt.ID]
	delete(w.revoked, wt.ID)
	stale := wt.gen != w.gen
	run := !w.stopped() && !revoked && !stale
	if run {
		w.held[wt.ID] = struct{}{}
	}
	w.mu.Unlock()
	select {
	case w.pulled <- struct{}{}:
	default:
	}
	if !run {
		if stale {
			w.dropStaleC.Inc()
		}
		w.finishIfDrained()
	}
	return run
}

// wireSize estimates the attempt's encoded size: a fixed part for its
// scalar fields plus eight bytes per emitted vertex id.
func (a *Attempt) wireSize() int {
	size := 128 + len(a.Err)
	for _, f := range a.Matches {
		size += 8 + 8*len(f)
	}
	for _, c := range a.Codes {
		size += 32 + 8*(len(c.CoverVertices)+len(c.Helve)+len(c.FreeVertices))
		for _, img := range c.Images {
			size += 8 + 8*len(img)
		}
	}
	return size
}

// enqueue hands a finished attempt to the reporter, blocking while the
// outbox is full. Once the reporter is gone the worker is going down
// with an error and the attempt is dropped; its lease will expire.
func (w *Worker) enqueue(a Attempt) {
	size := a.wireSize()
	w.mu.Lock()
	w.spanNs = smooth(w.spanNs, a.DurationNs)
	for !w.reporterGone && (len(w.outbox) >= outboxItems ||
		len(w.outbox) > 0 && w.outboxBytes+size > outboxBytes) {
		w.cond.Wait()
	}
	if !w.reporterGone {
		w.outbox = append(w.outbox, a)
		w.outboxBytes += size
	}
	w.mu.Unlock()
	w.cond.Broadcast()
}

// takeOutbox empties the outbox into a batch, waiting while there is
// nothing to take. It returns nil once the threads have exited and the
// outbox is empty.
func (w *Worker) takeOutbox() []Attempt {
	w.mu.Lock()
	for len(w.outbox) == 0 && !w.outboxClosed {
		w.cond.Wait()
	}
	batch := w.outbox
	w.outbox, w.outboxBytes = nil, 0
	w.mu.Unlock()
	w.cond.Broadcast() // room again
	return batch
}

// reportLoop is the reporter: it takes whatever the outbox holds, ships
// it as one report, and repeats — so a batch is exactly the attempts
// that finished during the previous round trip, one when the worker is
// idle. It exits when the threads are done and the outbox is empty, or
// when a report fails for good.
func (w *Worker) reportLoop() {
	defer func() {
		w.mu.Lock()
		w.reporterGone = true
		w.mu.Unlock()
		w.cond.Broadcast()
	}()
	for {
		batch := w.takeOutbox()
		if batch == nil || !w.ship(batch) {
			return
		}
	}
}

// ship reports batch, reporting whether the reporter should carry on.
// It reports under whatever session is current — a completed result is
// never thrown away. If the session died since the tasks ran, the retry
// path rejoins first and the commits land under the new identity and
// epoch; the master commits by task ID, so it does not matter who
// reports a task (dedup drops it if someone else, or a previous
// incarnation's journal, got there first). A report that fails in
// transit is retried at half the size, down to single attempts, and the
// rest of the batch follows in chunks of the size that got through: on
// a link that severs after a byte budget, progress is never worse than
// one attempt per call.
func (w *Worker) ship(batch []Attempt) bool {
	n := len(batch)
	for len(batch) > 0 {
		if n > len(batch) {
			n = len(batch)
		}
		sent := false
		reply, _, err := callSched[ReportReply](w, "Sched.Report", func(id int, epoch uint64) any {
			if sent && n > 1 {
				n = (n + 1) / 2 // the previous attempt at this call went out and died
			}
			sent = true
			return &ReportArgs{WorkerID: id, Epoch: epoch, Attempts: batch[:n], Running: w.heldIDs()}
		})
		if err != nil {
			w.stop(fmt.Errorf("sched: report: %w", err))
			return false
		}
		if len(reply.Accepted) != n {
			w.stop(fmt.Errorf("sched: report: master acknowledged %d of %d attempts", len(reply.Accepted), n))
			return false
		}
		w.mu.Lock()
		for i := range batch[:n] {
			if reply.Accepted[i] {
				w.stats.Add(batch[i].Stats)
				w.tasks++
			}
			delete(w.held, batch[i].TaskID)
		}
		w.revokeLocked(reply.Revoked)
		w.mu.Unlock()
		if reply.Done {
			w.finish()
			return false
		}
		batch = batch[n:]
		w.finishIfDrained()
	}
	return true
}

// heldIDs snapshots what a call reports as Running: the held set, plus
// the front of the local queue the threads are about to start (see
// aheadLocked).
func (w *Worker) heldIDs() []int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	ahead := w.aheadLocked()
	if ahead > len(w.queue) {
		ahead = len(w.queue)
	}
	ids := make([]int64, 0, len(w.held)+ahead)
	for id := range w.held {
		ids = append(ids, id)
	}
	return append(ids, w.queue[:ahead]...)
}

// revokeLocked records tasks the master took back; claim drops them
// when they come off the local queue. Caller holds w.mu.
func (w *Worker) revokeLocked(ids []int64) {
	for _, id := range ids {
		w.revoked[id] = struct{}{}
	}
}

// heartbeatLoop renews the lease and learns about revocations and the
// end of the run when no other call is there to carry them.
func (w *Worker) heartbeatLoop() {
	t := time.NewTicker(w.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-t.C:
		}
		reply, gen, err := callSched[HeartbeatReply](w, "Sched.Heartbeat", func(id int, epoch uint64) any {
			return &HeartbeatArgs{WorkerID: id, Running: w.heldIDs(), Epoch: epoch}
		})
		if err != nil {
			w.stop(fmt.Errorf("sched: heartbeat: %w", err))
			return
		}
		if reply.Fenced {
			if w.retrier == nil {
				w.stop(ErrFenced)
				return
			}
			if s := w.session(); s != nil && s.gen == gen {
				w.teardown(s)
			}
			continue
		}
		w.mu.Lock()
		w.revokeLocked(reply.Revoked)
		w.mu.Unlock()
		if reply.Done {
			// Nothing is left to do, and the master's Drain is waiting for
			// us to hang up: leave now rather than at the dispatcher's
			// next poll.
			w.finish()
			return
		}
	}
}
