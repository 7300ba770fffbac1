// Package sched is the networked control plane: it promotes the
// simulated cluster (internal/cluster, goroutines in one process) to a
// real master/worker deployment over TCP, the compute-side twin of the
// internal/kv storage nodes.
//
// The paper's §V-B splits enumeration into local search tasks and
// shuffles them evenly to statically provisioned reducers; that model
// assumes a fixed, evenly loaded cluster. Here scheduling is
// pull-based, in the HUGE mold (see PAPERS.md): the master serves the
// task queue over stdlib net/rpc, workers join and leave dynamically
// and lease tasks ahead of need (as far ahead as a Lease round trip is
// long in tasks), and a worker that finds the queue empty steals
// backlog from the straggler with the largest expected drain time
// (leased but not-yet-running tasks, weighted by that worker's observed
// task-span histogram). Stragglers shed load instead of defining the
// critical path.
//
// Failure story, built on the PR 4 resilience layer:
//
//   - Workers hold a lease on every task handed to them, renewed by
//     any call. Two expiry scans in a row that find a worker silent
//     declare it dead (fenced): its leases expire and the tasks are
//     re-queued — the networked analogue of MapReduce task
//     re-execution (§VI).
//   - Completion is committed by task ID exactly once. Execution is
//     at-least-once (a stolen or expired task may finish twice); the
//     first successful report wins, duplicates are counted
//     (sched.tasks.duplicate) and dropped. Emissions travel inside the
//     report, so a task's matches are delivered if and only if its
//     completion commits — no lost and no double-counted embeddings.
//   - Reporting is asynchronous and self-batching. A worker thread
//     hands its finished attempt to a bounded per-worker outbox and
//     starts the next task at once; one reporter goroutine ships
//     whatever accumulated during the previous round trip as a single
//     Report, so the batch size follows the load (1 when idle) with no
//     timer and no knob. A finished attempt that was never
//     acknowledged — the outbox of a killed worker — is healed by lease
//     expiry exactly as a task lost mid-execution is.
//   - A failed attempt (a worker-side executor or store error) is
//     re-queued until MasterConfig.TaskRetries is exhausted, then fails the
//     run loudly.
//   - The master itself can crash and restart: with a journal
//     (MasterConfig.JournalPath, package journal) every report's
//     completions are written with one append and one fsync before any
//     of them is acknowledged, and a re-launched master replays the
//     file, skips done tasks, and re-queues only the rest. Each
//     incarnation runs at a fresh epoch;
//     every RPC carries the epoch it was issued under, and calls from
//     an older incarnation are rejected idempotently (Stale replies),
//     so a report raced across a restart can never double-commit or
//     corrupt the new incarnation's accounting.
//
// The wire protocol (this file) mirrors internal/kv's client/server
// shape: gob-encoded net/rpc over TCP, one service ("Sched") with four
// methods — Join, Lease, Report, Heartbeat. Lease, Report and
// Heartbeat all carry the worker's held set (Running) up and pending
// revocations (Revoked) down, so the master's view of what a worker is
// doing is as fresh as its last call of any kind. harness.go adds the
// cross-process test harness: StartMaster/StartWorker run the real wire
// protocol over loopback inside tests, and SpawnWorkerProcess re-execs
// the test binary so the differential and chaos matrices exercise a
// genuine multi-process deployment.
package sched

import (
	"time"

	"benu/internal/cluster"
	"benu/internal/exec"
	"benu/internal/vcbc"
)

// JoinArgs is the RPC request for Sched.Join.
type JoinArgs struct {
	// Name optionally labels the worker in logs and errors.
	Name string
	// StoreParts lists the hash partitions of the adjacency store this
	// worker serves locally (it co-hosts those storage nodes, or holds
	// their CSR files on its disk). The master prefers leasing it tasks
	// whose start vertex lives in one of them. Nil means no locality
	// preference.
	StoreParts []int
	// StoreNumParts is the partition count StoreParts indexes refer to
	// (vertex v lives in partition v mod StoreNumParts).
	StoreNumParts int
}

// JoinReply hands a joining worker everything it needs to execute
// tasks: the compiled plan's wire form, the graph metadata, the total
// order, and the execution settings the master wants applied uniformly.
type JoinReply struct {
	// WorkerID identifies this worker in every subsequent call.
	WorkerID int
	// Epoch is the master incarnation that issued this identity. The
	// worker echoes it in every subsequent call; after a master restart
	// the echo no longer matches and the call is rejected as Stale,
	// telling the worker to re-Join.
	Epoch uint64
	// Plan is the plan.MarshalJSON broadcast payload.
	Plan []byte
	// NumVertices is |V(G)| of the data graph.
	NumVertices int
	// Ranks is the symmetry-breaking total order (graph.OrderFromRanks),
	// or nil when the order is the identity: the payload does not grow
	// with |V| for a graph whose ids follow ≺.
	Ranks []int64
	// StoreAddrs are the kv storage nodes to dial when the worker was
	// not constructed with its own store.
	StoreAddrs []string
	// Degrees carries d_G(v) per vertex when the plan is
	// degree-filtered (nil otherwise).
	Degrees []int32
	// Labels carries vertex labels when the pattern is labeled (nil
	// otherwise).
	Labels []int64
	// LeaseDuration is how long the master tolerates heartbeat silence
	// before the worker's leases expire.
	LeaseDuration time.Duration
	// HeartbeatEvery is the interval workers must heartbeat at (and the
	// poll interval when the queue is momentarily empty).
	HeartbeatEvery time.Duration
	// LeaseBatch is the most tasks one Lease call hands out: the cap on
	// how far ahead a worker leases.
	LeaseBatch int
	// WantMatches / WantCodes tell the worker whether to ship emitted
	// embeddings / VCBC codes inside reports (only when the master has
	// a consumer; counts always travel in Stats).
	WantMatches bool
	WantCodes   bool
	// Spec is the job's machine settings, applied uniformly across
	// workers so results and costs are comparable: each worker sets up
	// its machine from it (cluster.NewMachine).
	Spec cluster.Spec
}

// WireTask is one leased task.
type WireTask struct {
	// ID is the run-unique task identifier completion is committed by.
	ID int64
	// Task is the local search task itself.
	Task exec.Task
	// Stolen marks a task reassigned from a straggler's backlog.
	Stolen bool
}

// LeaseArgs is the RPC request for Sched.Lease: a worker pulling up to
// Max tasks into its local queue.
type LeaseArgs struct {
	WorkerID int
	Max      int
	// Epoch is the master incarnation the worker joined (JoinReply.Epoch).
	Epoch uint64
	// Running is the worker's held set: tasks executing on a thread or
	// finished and awaiting acknowledgement in its outbox. Everything
	// else it has leased is backlog the master may steal.
	Running []int64
}

// LeaseReply carries the leased tasks, or the reason there are none.
type LeaseReply struct {
	Tasks []WireTask
	// Revoked lists tasks stolen from this worker's backlog since its
	// last call; it must drop them from its local queue unexecuted.
	Revoked []int64
	// Done: the run is complete (or failed); the worker should drain
	// and exit.
	Done bool
	// Fenced: the worker's lease expired and it was declared dead; it
	// must stop (its tasks are already re-queued elsewhere).
	Fenced bool
	// Backoff is the suggested wait before polling again when no tasks
	// are available right now (the queue may refill via failures, and
	// the run may end): about one mean task span, at most a heartbeat
	// interval. A worker doubles it over consecutive empty replies.
	Backoff time.Duration
	// Stale: the caller's epoch predates this master incarnation (the
	// master restarted). The worker must discard its leases and re-Join.
	Stale bool
}

// Attempt is one finished task attempt, successful or not.
type Attempt struct {
	TaskID int64
	// Err is the attempt's failure, "" on success. A failed attempt
	// carries no results.
	Err string
	// DurationNs is the attempt's wall time, feeding the master's
	// per-worker straggler histograms.
	DurationNs int64
	// Stats is the attempt's executor counter delta.
	Stats exec.Stats
	// Matches / Codes are the attempt's buffered emissions (only when
	// the master asked via WantMatches/WantCodes).
	Matches [][]int64
	Codes   []*vcbc.Code
}

// ReportArgs is the RPC request for Sched.Report: every attempt the
// worker finished since its previous report went out, in completion
// order. The master validates the whole batch, journals its fresh
// completions with one append, and commits them in that order.
type ReportArgs struct {
	WorkerID int
	// Epoch is the master incarnation the worker is joined to. A report
	// from a fenced epoch is rejected without touching state.
	Epoch    uint64
	Attempts []Attempt
	// Running is the worker's held set (see LeaseArgs.Running); it may
	// include this batch's own tasks, which the report releases.
	Running []int64
}

// ReportReply acknowledges a report, attempt by attempt.
type ReportReply struct {
	// Accepted[i]: Attempts[i]'s completion committed — after its journal
	// record was made durable. False means the attempt failed, or
	// another attempt (an earlier delivery of this batch included)
	// already committed the task and this one was dropped as a
	// duplicate, or the journal append failed (and with it the run).
	// Empty on a Stale reply.
	Accepted []bool
	// Revoked: see LeaseReply.Revoked.
	Revoked []int64
	// Done: the run is complete; the worker should exit.
	Done bool
	// Stale: the report's epoch predates this master incarnation; it
	// was rejected idempotently. The worker must re-Join.
	Stale bool
}

// HeartbeatArgs is the RPC request for Sched.Heartbeat: lease renewal
// every HeartbeatEvery, whatever else the worker is doing.
type HeartbeatArgs struct {
	WorkerID int
	// Running: see LeaseArgs.Running.
	Running []int64
	// Epoch is the master incarnation the worker joined.
	Epoch uint64
}

// HeartbeatReply returns revocations and run state, like every other
// reply.
type HeartbeatReply struct {
	// Revoked: see LeaseReply.Revoked.
	Revoked []int64
	// Done: the run is complete; the worker should exit.
	Done   bool
	Fenced bool
	// Stale: the caller's epoch predates this master incarnation.
	Stale bool
}
