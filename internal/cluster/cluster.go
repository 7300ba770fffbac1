// Package cluster simulates the shared-nothing deployment of Fig. 2: a
// master that generates local search tasks (with task splitting, §V-B)
// and a set of worker machines, each running several working threads that
// share one machine-local database cache and query the distributed
// database as needed.
//
// The paper runs on Hadoop MapReduce with HBase; here each machine is a
// goroutine group inside one process, the database is any kv.Store
// (in-process or the TCP-backed client), and per-machine/per-task metrics
// are collected directly. The execution structure the paper's experiments
// measure — task parallelism, cache sharing scope, straggler behaviour,
// communication volume — is preserved.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"benu/internal/cache"
	"benu/internal/exec"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/vcbc"
)

// Config parameterizes a run. The zero value is not valid; use Defaults
// and override.
type Config struct {
	// Workers is the number of simulated worker machines.
	Workers int
	// ThreadsPerWorker is the number of working threads per machine
	// (24 in the paper's setup).
	ThreadsPerWorker int
	// CacheBytes is the DB cache capacity per machine (30 GB in the
	// paper). 0 disables caching.
	CacheBytes int64
	// Spec holds the job's machine settings: τ, the task retry budget,
	// the triangle cache, and the data plane.
	Spec
	// PrefetchBatchSize caps keys per batched round trip, and is the
	// length of the start-vertex prefetch window (0 = default 64).
	PrefetchBatchSize int
	// CollectTaskTimes records per-task wall durations (Exp-4).
	CollectTaskTimes bool
	// Deadline, when positive, stops dispatching new tasks once the run
	// has lasted this long; Result.TimedOut reports whether it fired
	// (the analogue of the paper's ">7200s" table entries).
	Deadline time.Duration
	// SequentialWorkers runs the simulated machines one after another
	// instead of concurrently. Use when measuring per-worker busy time
	// on a host with fewer cores than simulated machines: each machine's
	// work is then timed in isolation and Result.MaxWorkerBusy() is the
	// makespan a real shared-nothing cluster would see.
	SequentialWorkers bool
	// Emit optionally receives complete matches (uncompressed plans).
	// It is called concurrently from worker threads and must be
	// thread-safe; the slice is reused — copy to retain.
	Emit func(f []int64) bool
	// EmitCode optionally receives compressed codes (VCBC plans), under
	// the same concurrency and lifetime rules as Emit.
	EmitCode func(c *vcbc.Code) bool
	// LabelOf supplies data-vertex labels; required when the plan's
	// pattern is labeled (property-graph extension). Pass
	// graph.Graph.Label for in-process data graphs.
	LabelOf func(v int64) int64
	// Obs selects the metrics registry the run reports into: task spans
	// and straggler histograms, queue depth, DB traffic, cache behaviour
	// (see docs/METRICS.md, cluster.* and cache.* names). nil means
	// obs.Default(). The registry is also handed to every executor.
	Obs *obs.Registry
}

// Spec holds the settings that shape how every machine of a job runs its
// tasks, declared once for both runtimes: Config embeds one, and the
// networked master (internal/cluster/sched) fills one from its
// MasterConfig and hands it to every worker in its Join reply. Task
// generation reads Tau, the retry loops TaskRetries, and NewMachine the
// rest.
type Spec struct {
	// Tau is the §V-B task-splitting degree threshold τ (500 in the
	// paper). 0 disables task splitting.
	Tau int
	// TaskRetries re-executes a failed local search task up to this many
	// times before the run fails — the paper's MapReduce task
	// re-execution (§VI); in the networked runtime an expired lease
	// counts against the budget too. Accounting is exactly-once: a
	// task's match counts and emissions commit only when an attempt
	// succeeds, so a retried task can never double-count. 0 disables
	// re-execution (the first task failure fails the run).
	TaskRetries int
	// TriangleCacheEntries bounds each executor thread's triangle cache
	// (0 disables it).
	TriangleCacheEntries int
	// Prefetch turns on the batched adjacency prefetcher wherever a
	// machine knows keys ahead of demand: each task window's start
	// vertices and, when they follow from those alone, its first-level
	// candidates (a window is PrefetchBatchSize queued tasks of a
	// simulated machine, a networked worker's lease batch), and each
	// DB-queried enumeration loop's candidates. It fills
	// exec.SourceOptions.Prefetch.
	Prefetch bool
	// CompactAdjacency moves the machine's data plane to the compact
	// varint-delta encoding: batched fetches travel and cache as encoded
	// bytes, and executors decode into per-instruction scratch. It fills
	// exec.SourceOptions.Compact.
	CompactAdjacency bool
}

// Defaults returns the configuration used by most experiments: 4 machines
// × 4 threads, a DB cache sized to the whole data graph (the paper's 30 GB
// cache likewise exceeded most of its data graphs, leaving Exp-3 to sweep
// smaller capacities explicitly), τ=500, triangle cache on.
func Defaults(g *graph.Graph) Config {
	return Config{
		Workers:          4,
		ThreadsPerWorker: 4,
		CacheBytes:       g.SizeBytes() + int64(g.NumVertices())*96,
		Spec:             Spec{Tau: 500, TriangleCacheEntries: 1 << 14},
	}
}

// WorkerStats aggregates what one machine did during a run.
type WorkerStats struct {
	Machine   int
	Tasks     int
	BusyTime  time.Duration // summed task execution time across threads
	Exec      exec.Stats
	Cache     cache.Stats
	RemoteQ   int64 // cache-missing queries issued to the store
	RemoteB   int64 // bytes fetched from the store
	RemoteT   int64 // store round trips (a batched fetch of k keys is one)
	TriHits   int64
	TriMisses int64
}

// Result summarizes a distributed enumeration.
type Result struct {
	// Matches is the total number of matches (expanded count for
	// compressed plans).
	Matches int64
	// Codes is the number of VCBC codes emitted (compressed plans only).
	Codes int64
	// Tasks is the number of local search tasks executed (after
	// splitting).
	Tasks int
	// SplitTasks is how many of them were split subtasks.
	SplitTasks int
	// Wall is the end-to-end enumeration time.
	Wall time.Duration
	// DBQueries / BytesFetched are the communication cost: queries that
	// reached the database (i.e. missed every cache) and their volume.
	DBQueries    int64
	BytesFetched int64
	// StoreTrips counts store round trips — with the batched prefetcher a
	// trip serves many queries, so StoreTrips ≪ DBQueries measures the
	// latency amortization of the data plane.
	StoreTrips int64
	// ResultBytes is the size of the emitted results (compressed size
	// for VCBC plans).
	ResultBytes int64
	// CacheHitRate is the average DB-cache hit rate across machines.
	CacheHitRate float64
	// PerWorker carries the per-machine breakdown.
	PerWorker []WorkerStats
	// TaskTimes holds per-task durations when Config.CollectTaskTimes.
	TaskTimes []time.Duration
	// TimedOut reports that Config.Deadline fired before all tasks ran;
	// Matches is then a lower bound.
	TimedOut bool
	// TasksRetried counts task re-executions (an attempt that failed and
	// was requeued). A clean run reports 0.
	TasksRetried int
	// TasksFailed counts tasks that exhausted their retry budget. It is
	// nonzero only when the run returns an error.
	TasksFailed int
}

// Run executes pl against the data graph served by store, on a simulated
// cluster described by cfg. degree reports d_G(v) for task splitting; pass
// graph.Graph.Degree for in-process runs or a degree table fetched from
// the store's metadata in a real deployment.
func Run(pl *plan.Plan, store kv.Store, ord *graph.TotalOrder, degree func(v int64) int, cfg Config) (*Result, error) {
	return RunContext(context.Background(), pl, store, ord, degree, cfg)
}

// taskAttempt is one queue entry: a local search task plus how many
// times it has already failed.
type taskAttempt struct {
	t     exec.Task
	tries int
}

// NewMachine sets up one machine of either runtime: a cached source over
// store and the executor options its threads share, with the degree and
// label oracles (nil when the plan needs none). A non-nil ctx bounds the
// source's store traffic, and a context-binding store (kv.Resilient, or
// any decorator chain over one) is rebound to it so cancellation also
// stops its retry loops mid-backoff. Emission callbacks are the caller's
// to add.
func NewMachine(ctx context.Context, store kv.Store, cacheBytes int64, spec Spec, reg *obs.Registry, batchSize int,
	degreeOf func(v int64) int, labelOf func(v int64) int64) (*exec.CachedSource, exec.Options) {
	if ctx != nil {
		store = kv.WithContext(store, ctx)
	}
	src := exec.NewCachedSourceWith(store, cacheBytes, exec.SourceOptions{
		Compact:   spec.CompactAdjacency,
		Prefetch:  spec.Prefetch,
		BatchSize: batchSize,
		Obs:       reg,
		Ctx:       ctx,
	})
	return src, exec.Options{
		TriangleCacheEntries: spec.TriangleCacheEntries,
		DegreeOf:             degreeOf,
		LabelOf:              labelOf,
		Obs:                  reg,
	}
}

// Emissions holds one task attempt's emissions until the attempt's fate
// is known. A failed attempt may have emitted partial results before its
// fault; delivering them and then re-running the task would deliver them
// twice. Holding them until the attempt succeeds makes delivery
// exactly-once at the cost of one copy per result (the executor reuses
// the emitted slices, so retention requires copying anyway).
type Emissions struct {
	matches [][]int64
	codes   []*vcbc.Code
}

// Capture points opts' emit callbacks at e: the matches callback when
// matches is set, the codes callback when codes is.
func (e *Emissions) Capture(opts *exec.Options, matches, codes bool) {
	if matches {
		opts.Emit = func(f []int64) bool {
			e.matches = append(e.matches, append([]int64(nil), f...))
			return true
		}
	}
	if codes {
		opts.EmitCode = func(c *vcbc.Code) bool {
			e.codes = append(e.codes, c.Clone())
			return true
		}
	}
}

// Take hands over the attempt's emissions and empties e for the next.
func (e *Emissions) Take() ([][]int64, []*vcbc.Code) {
	m, c := e.matches, e.codes
	e.matches, e.codes = nil, nil
	return m, c
}

// RunContext is Run bounded by ctx: cancellation stops task dispatch on
// every worker, interrupts store traffic (the machine caches stop
// issuing round trips, and a kv.Resilient store is rebound so its
// retries stop too), and returns ctx's error once the workers drain.
func RunContext(ctx context.Context, pl *plan.Plan, store kv.Store, ord *graph.TotalOrder, degree func(v int64) int, cfg Config) (*Result, error) {
	if cfg.Workers < 1 || cfg.ThreadsPerWorker < 1 {
		return nil, fmt.Errorf("cluster: need ≥1 worker and ≥1 thread, got %d×%d", cfg.Workers, cfg.ThreadsPerWorker)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, err := exec.Compile(pl)
	if err != nil {
		return nil, err
	}
	n := store.NumVertices()

	if pl.Pattern.Labeled() && cfg.LabelOf == nil {
		return nil, fmt.Errorf("cluster: labeled pattern %q requires Config.LabelOf", pl.Pattern.Name())
	}
	tasks, splitCount := GenerateTasks(pl, prog, n, degree, cfg.Tau, cfg.LabelOf)

	// Shuffle tasks evenly to workers (round-robin, like the paper's
	// even shuffle of map output to reducers).
	queues := make([][]exec.Task, cfg.Workers)
	for i, t := range tasks {
		w := i % cfg.Workers
		queues[w] = append(queues[w], t)
	}

	res := &Result{Tasks: len(tasks), SplitTasks: splitCount}
	if cfg.CollectTaskTimes {
		res.TaskTimes = make([]time.Duration, 0, len(tasks))
	}

	// Executors get the degree oracle only when the plan filters by
	// degree; otherwise nothing in the run holds it, nor whatever it
	// closes over (graph.Graph.Degree pins the caller's whole graph).
	var degreeOf func(v int64) int
	if pl.DegreeFiltered {
		degreeOf = degree
	}

	reg := cfg.Obs
	if reg == nil {
		reg = obs.Default()
	}
	queueDepth := reg.Gauge("cluster.queue.depth")
	queueDepth.Add(float64(len(tasks)))

	// runCtx bounds the whole run: the caller's ctx cancels it, and a
	// fatal task failure cancels it internally so every worker stops
	// dispatching instead of grinding through a doomed queue.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	// Task re-execution is on when a retry budget is configured.
	retrying := cfg.TaskRetries > 0

	var (
		mu           sync.Mutex // guards res.TaskTimes
		wg           sync.WaitGroup
		runErr       error
		errOnce      sync.Once
		timedOut     atomic.Bool
		cancelled    atomic.Bool  // a pop observed runCtx cancelled
		dispatched   atomic.Int64 // tasks actually popped (≤ len(tasks) on deadline)
		tasksRetried atomic.Int64
		tasksFailed  atomic.Int64
	)
	perWorker := make([]WorkerStats, cfg.Workers)
	//benulint:wallclock run timing feeds Result.Wall and the deadline check, never the embeddings
	start := time.Now()

	runWorker := func(w int) {
		{
			// One machine: a shared cached source and a work queue
			// drained by ThreadsPerWorker threads.
			src, eopts := NewMachine(runCtx, store, cfg.CacheBytes, cfg.Spec, reg, cfg.PrefetchBatchSize, degreeOf, cfg.LabelOf)
			queue := queues[w]
			window := src.BatchSize() // the task window, in tasks
			var next int
			var qmu sync.Mutex
			var retryQ []taskAttempt
			// pop prefers re-executions over fresh tasks: a retried task
			// already holds warm cache entries, and draining it first
			// bounds the failure window. Retried pops do not touch the
			// dispatch accounting — the task was already counted when it
			// was first popped. The thread that pops the first task of a
			// window fetches the whole window — start vertices, then the
			// first-level frontier its idle executor e computes from them —
			// before it runs its own, when the source prefetches; a sibling
			// whose task is in the same window joins those batches through
			// the source's single-flight table.
			pop := func(e *exec.Executor) (taskAttempt, bool) {
				if runCtx.Err() != nil {
					cancelled.Store(true)
					return taskAttempt{}, false
				}
				//benulint:wallclock Config.Deadline is an explicit wall-clock budget (the paper's >7200s cells)
				if cfg.Deadline > 0 && time.Since(start) > cfg.Deadline {
					timedOut.Store(true)
					return taskAttempt{}, false
				}
				qmu.Lock()
				if n := len(retryQ); n > 0 {
					ta := retryQ[n-1]
					retryQ = retryQ[:n-1]
					qmu.Unlock()
					return ta, true
				}
				i := next
				if i < len(queue) {
					next++
				}
				qmu.Unlock()
				if i >= len(queue) {
					return taskAttempt{}, false
				}
				dispatched.Add(1)
				queueDepth.Add(-1)
				if i%window == 0 {
					ahead := queue[i:min(i+window, len(queue))]
					src.PrefetchWindow(e, len(ahead), func(j int) exec.Task { return ahead[j] })
				}
				return taskAttempt{t: queue[i]}, true
			}
			requeue := func(ta taskAttempt) {
				qmu.Lock()
				retryQ = append(retryQ, ta)
				qmu.Unlock()
			}

			threadStats := make([]exec.Stats, cfg.ThreadsPerWorker)
			busy := make([]time.Duration, cfg.ThreadsPerWorker)
			taskCount := make([]int, cfg.ThreadsPerWorker)

			var tw sync.WaitGroup
			for th := 0; th < cfg.ThreadsPerWorker; th++ {
				th := th
				tw.Add(1)
				go func() {
					defer tw.Done()
					eopts := eopts
					eopts.Emit, eopts.EmitCode = cfg.Emit, cfg.EmitCode
					// Under re-execution, emissions are held per attempt and
					// reach the user's callbacks only when it succeeds — a
					// failed attempt's partial results vanish with it, so a
					// retry cannot double-deliver.
					var held Emissions
					if retrying {
						held.Capture(&eopts, cfg.Emit != nil, cfg.EmitCode != nil)
					}
					// committed accumulates only successful attempts'
					// stats deltas; failed attempts' partial work never
					// reaches the run totals (exactly-once accounting).
					var committed exec.Stats
					e := exec.NewExecutor(prog, src, n, ord, eopts)
					for {
						ta, ok := pop(e)
						if !ok {
							break
						}
						sp := reg.StartSpan("cluster.task")
						delta, err := e.Run(ta.t)
						d := sp.End()
						matches, codes := held.Take()
						if err != nil {
							if runCtx.Err() != nil {
								// Cancellation surfacing through the
								// store, not a task fault.
								cancelled.Store(true)
								break
							}
							if retrying && ta.tries < cfg.TaskRetries {
								ta.tries++
								tasksRetried.Add(1)
								requeue(ta)
								continue
							}
							tasksFailed.Add(1)
							errOnce.Do(func() {
								if ta.tries > 0 {
									runErr = fmt.Errorf("cluster: task start=%d failed after %d attempts: %w", ta.t.Start, ta.tries+1, err)
								} else {
									runErr = err
								}
							})
							cancelRun()
							break
						}
						committed.Add(delta)
						// A callback returning false stops delivery: its
						// contract is "stop the current task early", and the
						// task is already complete.
						for _, m := range matches {
							if !cfg.Emit(m) {
								break
							}
						}
						for _, c := range codes {
							if !cfg.EmitCode(c) {
								break
							}
						}
						busy[th] += d
						taskCount[th]++
						if cfg.CollectTaskTimes {
							mu.Lock()
							res.TaskTimes = append(res.TaskTimes, d)
							mu.Unlock()
						}
					}
					threadStats[th] = committed
				}()
			}
			tw.Wait()
			ws := &perWorker[w]
			ws.Machine = w
			for th := range threadStats {
				ws.Exec.Add(threadStats[th])
				ws.BusyTime += busy[th]
				ws.Tasks += taskCount[th]
			}
			ws.Cache = src.Cache().Stats()
			ws.RemoteQ = src.RemoteQueries()
			ws.RemoteB = src.RemoteBytes()
			ws.RemoteT = src.RemoteTrips()
			ws.TriHits = ws.Exec.TriHits
			ws.TriMisses = ws.Exec.TriMisses
		}
	}
	if cfg.SequentialWorkers {
		for w := 0; w < cfg.Workers; w++ {
			runWorker(w)
		}
	} else {
		for w := 0; w < cfg.Workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				runWorker(w)
			}()
		}
		wg.Wait()
	}
	res.Wall = time.Since(start) //benulint:wallclock observational: reported, never part of results
	res.TimedOut = timedOut.Load()
	res.TasksRetried = int(tasksRetried.Load())
	res.TasksFailed = int(tasksFailed.Load())
	// Tasks abandoned by a deadline or cancellation were never popped;
	// zero their queue depth contribution so the gauge settles at the
	// true backlog (0 when every concurrent run drained).
	queueDepth.Add(float64(dispatched.Load()) - float64(len(tasks)))
	// Retry/failure counters publish even when the run errors — a failed
	// run's re-execution attempts are exactly what an operator wants to
	// see (publishObs only runs on success).
	reg.Counter("cluster.tasks.retried").Add(tasksRetried.Load())
	reg.Counter("cluster.tasks.failed").Add(tasksFailed.Load())
	if runErr != nil {
		return nil, runErr
	}
	if cancelled.Load() {
		return nil, ctx.Err()
	}

	var hitSum float64
	for w := range perWorker {
		ws := &perWorker[w]
		res.Matches += ws.Exec.Matches
		res.Codes += ws.Exec.Codes
		res.DBQueries += ws.RemoteQ
		res.BytesFetched += ws.RemoteB
		res.StoreTrips += ws.RemoteT
		res.ResultBytes += ws.Exec.ResultSize
		hitSum += ws.Cache.HitRate()
	}
	res.CacheHitRate = hitSum / float64(len(perWorker))
	res.PerWorker = perWorker
	publishObs(reg, res)
	return res, nil
}

// publishObs records the run-level summary into the metrics registry:
// the communication/result counters that Result reports, plus the cache
// and per-worker skew figures the paper's Exp-3/Exp-4 build on. Executor
// counters (exec.*) were already flushed per task; these are the
// cluster-level aggregates layered on top.
func publishObs(reg *obs.Registry, res *Result) {
	reg.Counter("cluster.runs").Inc()
	reg.Counter("cluster.tasks.total").Add(int64(res.Tasks))
	reg.Counter("cluster.tasks.split").Add(int64(res.SplitTasks))
	reg.Counter("cluster.matches").Add(res.Matches)
	reg.Counter("cluster.codes").Add(res.Codes)
	reg.Counter("cluster.result_bytes").Add(res.ResultBytes)
	reg.Gauge("cluster.cache.hit_rate").Set(res.CacheHitRate)
	reg.Gauge("cluster.wall_ns").Set(float64(res.Wall.Nanoseconds()))
	if res.TimedOut {
		reg.Counter("cluster.deadline.expired").Inc()
	}
	workerBusy := reg.Histogram("cluster.worker.busy_ns")
	for i := range res.PerWorker {
		workerBusy.Record(res.PerWorker[i].BusyTime.Nanoseconds())
	}
	PublishMachines(reg, res.PerWorker)
}

// PublishMachines records the communication and DB-cache totals of the
// given machines — the cluster.db.* and cache.* series — into reg. Both
// runtimes call it when a run ends: cluster.Run over all its simulated
// machines, a sched worker process over itself, so the shipped binaries
// show hit rate and wire volume under -metrics too.
func PublishMachines(reg *obs.Registry, machines []WorkerStats) {
	var queries, fetched, trips, hits, misses, evictions, bytes, entries int64
	for i := range machines {
		ws := &machines[i]
		queries += ws.RemoteQ
		fetched += ws.RemoteB
		trips += ws.RemoteT
		hits += ws.Cache.Hits
		misses += ws.Cache.Misses
		evictions += ws.Cache.Evictions
		bytes += ws.Cache.Bytes
		entries += int64(ws.Cache.Entries)
	}
	reg.Counter("cluster.db.queries").Add(queries)
	reg.Counter("cluster.db.bytes_fetched").Add(fetched)
	reg.Counter("cluster.db.trips").Add(trips)
	reg.Counter("cache.hits").Add(hits)
	reg.Counter("cache.misses").Add(misses)
	reg.Counter("cache.evictions").Add(evictions)
	reg.Gauge("cache.bytes").Set(float64(bytes))
	reg.Gauge("cache.entries").Set(float64(entries))
}

// GenerateTasks produces one local search task per data vertex, splitting
// heavy start vertices per §V-B: a vertex with degree ≥ τ yields
// ⌈d/τ⌉ subtasks when the second matching-order vertex anchors on the
// start's adjacency, or ⌈N/τ⌉ when its candidate set is V(G). Both
// runtimes generate their tasks with it, so they enumerate identical
// task sets. Returns the tasks and how many of them are split subtasks.
func GenerateTasks(pl *plan.Plan, prog *exec.Program, n int, degree func(v int64) int, tau int, labelOf func(v int64) int64) ([]exec.Task, int) {
	var tasks []exec.Task
	split := 0
	canSplit := tau > 0 && prog.SupportsSplitting() && degree != nil
	secondAnchored := false
	if len(pl.Order) >= 2 {
		secondAnchored = pl.Pattern.HasEdge(int64(pl.Order[0]), int64(pl.Order[1]))
	}
	// For degree-filtered plans, a start vertex with degree below the
	// first order vertex's pattern degree can never seed a match.
	minStartDeg := 0
	if pl.DegreeFiltered && degree != nil {
		minStartDeg = len(pl.Pattern.Adj(int64(pl.Order[0])))
	}
	startLabel := int64(0)
	labeled := pl.Pattern.Labeled() && labelOf != nil
	if labeled {
		startLabel = pl.Pattern.Label(int64(pl.Order[0]))
	}
	for v := 0; v < n; v++ {
		if minStartDeg > 0 && degree(int64(v)) < minStartDeg {
			continue
		}
		if labeled && labelOf(int64(v)) != startLabel {
			continue
		}
		parts := 1
		if canSplit {
			d := degree(int64(v))
			if d >= tau {
				if secondAnchored {
					parts = (d + tau - 1) / tau
				} else {
					parts = (n + tau - 1) / tau
				}
			}
		}
		if parts <= 1 {
			tasks = append(tasks, exec.Task{Start: int64(v)})
			continue
		}
		for i := 0; i < parts; i++ {
			tasks = append(tasks, exec.Task{Start: int64(v), SplitIndex: i, SplitCount: parts})
			split++
		}
	}
	return tasks, split
}

// SortedTaskTimes returns the task durations sorted descending — the
// straggler view of Fig. 9a.
func (r *Result) SortedTaskTimes() []time.Duration {
	out := append([]time.Duration(nil), r.TaskTimes...)
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// MaxWorkerBusy returns the busiest machine's accumulated task time — the
// straggler bound on wall time (Fig. 9b).
func (r *Result) MaxWorkerBusy() time.Duration {
	var m time.Duration
	for _, w := range r.PerWorker {
		if w.BusyTime > m {
			m = w.BusyTime
		}
	}
	return m
}
