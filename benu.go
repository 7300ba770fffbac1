package benu

// Public facade: the high-level API a downstream user consumes. The
// implementation lives in internal/ packages (see doc.go for the map);
// the aliases below make the core types usable without importing
// internal paths, and the functions compose the common pipelines —
// plan → simulated cluster → counts/matches/compressed codes.

import (
	"context"
	"io"

	"benu/internal/cluster"
	"benu/internal/estimate"
	"benu/internal/exec"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/resilience"
	"benu/internal/vcbc"
)

// Core graph types.
type (
	// Graph is an undirected, unlabeled (optionally vertex-labeled)
	// simple data graph.
	Graph = graph.Graph
	// Pattern is a connected pattern graph with its automorphism group
	// and symmetry-breaking constraints.
	Pattern = graph.Pattern
	// TotalOrder is the ≺ order on data vertices used by symmetry
	// breaking.
	TotalOrder = graph.TotalOrder
	// ExecutionPlan is a compiled BENU execution plan.
	ExecutionPlan = plan.Plan
	// PlanOptions selects optimization passes (CSE, reordering, triangle
	// caching, VCBC compression, degree filter, clique cache).
	PlanOptions = plan.Options
	// ClusterConfig parameterizes the simulated shared-nothing cluster.
	ClusterConfig = cluster.Config
	// ClusterSpec is the machine settings ClusterConfig embeds: τ, the
	// task retry budget, the triangle cache, and the data plane.
	ClusterSpec = cluster.Spec
	// Result summarizes a distributed enumeration: counts, communication
	// volume, cache hit rates, per-worker stats.
	Result = cluster.Result
	// Code is one VCBC-compressed result.
	Code = vcbc.Code
	// Store serves adjacency sets (the distributed database interface).
	Store = kv.Store
	// Metrics is a concurrency-safe registry of counters, gauges, and
	// histograms — the unified observability layer every runtime package
	// reports into. See docs/METRICS.md for the metric name reference.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Metrics registry; it
	// renders to aligned text (WriteText) and JSON (JSON).
	MetricsSnapshot = obs.Snapshot
	// RetryPolicy configures store-call retries: attempt budget,
	// exponential backoff with deterministic jitter, per-attempt deadline.
	RetryPolicy = resilience.Policy
	// BreakerConfig configures the per-backend circuit breaker.
	BreakerConfig = resilience.BreakerConfig
	// ResilientStoreOptions configures NewResilientStore.
	ResilientStoreOptions = kv.ResilientOptions
)

// NewGraph builds a data graph with n vertices from an edge list.
// Duplicate edges and self-loops are dropped.
func NewGraph(n int, edges [][2]int64) *Graph { return graph.FromEdges(n, edges) }

// ReadGraph parses a whitespace-separated edge list ('#' comments).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes g in the edge-list format ReadGraph parses.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// NewPattern builds a connected pattern graph.
func NewPattern(name string, n int, edges [][2]int64) (*Pattern, error) {
	return graph.NewPattern(name, n, edges)
}

// NewLabeledPattern builds a pattern whose vertices carry labels (the
// property-graph extension); matches must preserve labels.
func NewLabeledPattern(name string, n int, edges [][2]int64, labels []int64) (*Pattern, error) {
	return graph.NewLabeledPattern(name, n, edges, labels)
}

// PatternByName resolves built-in pattern names: triangle, square,
// chordal-square, demo, q1..q9, cliqueK, pathK, cycleK, starK.
func PatternByName(name string) (*Pattern, error) { return gen.PatternByName(name) }

// DefaultPlanOptions enables every optimization including VCBC
// compression — the configuration the paper evaluates.
func DefaultPlanOptions() PlanOptions { return plan.AllOptions }

// NewOrder computes the (degree, id) total order ≺ on g's vertices.
func NewOrder(g *Graph) *TotalOrder { return graph.NewTotalOrder(g) }

// DefaultClusterConfig returns the simulated-cluster defaults for g
// (4 machines × 4 threads, full-graph cache, τ=500, triangle cache on).
func DefaultClusterConfig(g *Graph) ClusterConfig { return cluster.Defaults(g) }

// PlanBest runs Algorithm 3 against g's statistics and returns the best
// execution plan for p under opts.
func PlanBest(p *Pattern, g *Graph, opts PlanOptions) (*ExecutionPlan, error) {
	st := estimate.NewStats(g, estimate.MaxMomentDefault)
	res, err := plan.GenerateBestPlan(p, st, opts)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// Options bundles the end-to-end knobs of Count/Enumerate. The zero
// value means: all plan optimizations on, cluster defaults (4 machines ×
// 4 threads, full-graph cache, τ=500, triangle cache on).
type Options struct {
	// Plan overrides the plan optimization selection; nil = all on.
	Plan *PlanOptions
	// Cluster overrides the simulated cluster configuration; nil =
	// cluster.Defaults for the data graph.
	Cluster *ClusterConfig
	// Metrics, when non-nil, is the registry the run records into: task
	// and straggler histograms, DB traffic, cache behaviour, store query
	// latency (the store is wrapped for timing). nil falls back to the
	// process-wide default registry, without store latency timing.
	Metrics *Metrics
	// Observer, when non-nil, receives the metrics snapshot of the
	// finished run. When Metrics is nil a private registry is created for
	// the run, so the snapshot covers exactly this enumeration.
	Observer func(*MetricsSnapshot)
	// Ctx bounds the run: cancellation stops task dispatch on every
	// simulated machine, interrupts store traffic, and makes the run
	// return the context's error. nil means context.Background().
	Ctx context.Context
}

// ctx returns the run-bounding context.
func (o *Options) ctx() context.Context {
	if o != nil && o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o *Options) resolve(g *Graph) (PlanOptions, ClusterConfig) {
	popts := plan.AllOptions
	cfg := cluster.Defaults(g)
	if o != nil {
		if o.Plan != nil {
			popts = *o.Plan
		}
		if o.Cluster != nil {
			cfg = *o.Cluster
		}
	}
	if g.Labeled() && cfg.LabelOf == nil {
		cfg.LabelOf = g.Label
	}
	return popts, cfg
}

// registry returns the registry this run should record into, or nil when
// neither Metrics nor Observer asks for one.
func (o *Options) registry() *Metrics {
	if o == nil {
		return nil
	}
	if o.Metrics != nil {
		return o.Metrics
	}
	if o.Observer != nil {
		return NewMetrics()
	}
	return nil
}

// instrument wires reg into the run: the cluster config reports there and
// the store is wrapped with latency observation. A nil reg leaves both
// untouched (cluster.Run then uses the process-wide default registry).
func (o *Options) instrument(reg *Metrics, cfg *ClusterConfig, store Store) Store {
	if reg == nil {
		return store
	}
	cfg.Obs = reg
	return kv.ObserveStore(store, reg)
}

// observe delivers the final snapshot to the Observer, if any.
func (o *Options) observe(reg *Metrics) {
	if o != nil && o.Observer != nil {
		o.Observer(reg.Snapshot())
	}
}

// NewMetrics creates an empty metrics registry to pass as
// Options.Metrics (or as ClusterConfig.Obs for RunOnStore).
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Count enumerates p in g on the simulated cluster and returns the
// result summary (Result.Matches is the subgraph count).
func Count(p *Pattern, g *Graph, opts *Options) (*Result, error) {
	popts, cfg := opts.resolve(g)
	pl, err := PlanBest(p, g, popts)
	if err != nil {
		return nil, err
	}
	reg := opts.registry()
	store := opts.instrument(reg, &cfg, kv.NewLocal(g))
	res, err := cluster.RunContext(opts.ctx(), pl, store, graph.NewTotalOrder(g), g.Degree, cfg)
	if err != nil {
		return nil, err
	}
	opts.observe(reg)
	return res, nil
}

// Enumerate streams every match of p in g to emit. The slice is indexed
// by pattern vertex and reused — copy to retain; return false to stop.
// emit is called concurrently from worker threads unless the cluster
// config is single-threaded.
func Enumerate(p *Pattern, g *Graph, opts *Options, emit func(match []int64) bool) (*Result, error) {
	popts, cfg := opts.resolve(g)
	popts.VCBC = false // full matches requested
	pl, err := PlanBest(p, g, popts)
	if err != nil {
		return nil, err
	}
	cfg.Emit = emit
	reg := opts.registry()
	store := opts.instrument(reg, &cfg, kv.NewLocal(g))
	res, err := cluster.RunContext(opts.ctx(), pl, store, graph.NewTotalOrder(g), g.Degree, cfg)
	if err != nil {
		return nil, err
	}
	opts.observe(reg)
	return res, nil
}

// EnumerateCodes streams VCBC-compressed results to emit under the same
// concurrency and lifetime rules as Enumerate. Expand or count codes
// with Code.Expand / Code.Count using the plan's FreeOrderConstraints.
func EnumerateCodes(p *Pattern, g *Graph, opts *Options, emit func(c *Code) bool) (*ExecutionPlan, *Result, error) {
	popts, cfg := opts.resolve(g)
	popts.VCBC = true
	pl, err := PlanBest(p, g, popts)
	if err != nil {
		return nil, nil, err
	}
	cfg.EmitCode = emit
	reg := opts.registry()
	store := opts.instrument(reg, &cfg, kv.NewLocal(g))
	res, err := cluster.RunContext(opts.ctx(), pl, store, graph.NewTotalOrder(g), g.Degree, cfg)
	if err != nil {
		return nil, nil, err
	}
	opts.observe(reg)
	return pl, res, nil
}

// RunOnStore executes a previously generated plan against any adjacency
// store — e.g. a TCP-backed kv.Client spanning storage nodes — with the
// given degree oracle for task splitting. Set cfg.Obs to a NewMetrics
// registry (and wrap the store with ObserveStore) to collect the run's
// metrics in isolation.
func RunOnStore(pl *ExecutionPlan, store Store, ord *TotalOrder, degree func(v int64) int, cfg ClusterConfig) (*Result, error) {
	return cluster.Run(pl, store, ord, degree, cfg)
}

// RunOnStoreContext is RunOnStore bounded by ctx: cancellation stops
// task dispatch on every worker, interrupts store traffic, and returns
// the context's error once the workers drain.
func RunOnStoreContext(ctx context.Context, pl *ExecutionPlan, store Store, ord *TotalOrder, degree func(v int64) int, cfg ClusterConfig) (*Result, error) {
	return cluster.RunContext(ctx, pl, store, ord, degree, cfg)
}

// NewResilientStore wraps any Store with the fault-tolerance layer the
// paper inherits from its HBase client: bounded retries with exponential
// backoff, optional per-attempt deadlines, and a per-backend circuit
// breaker (metrics under resilience.*, see docs/METRICS.md). Compose it
// outermost — e.g. over ObserveStore over a DialStore client — and pair
// with ClusterConfig.TaskRetries for task-level re-execution.
func NewResilientStore(store Store, opts ResilientStoreOptions) *kv.Resilient {
	return kv.NewResilient(store, opts)
}

// ObserveStore wraps store with per-query latency observation recording
// into reg: a kv.<backend>.batchget_latency_ns histogram (single-key
// demand misses are one-key batches) plus an error counter (see
// docs/METRICS.md). Use with RunOnStore; Count/Enumerate wrap their
// store automatically when Options.Metrics or Options.Observer is set.
func ObserveStore(store Store, reg *Metrics) Store { return kv.ObserveStore(store, reg) }

// ServeGraph shards g over p TCP storage nodes on loopback and returns
// the servers plus their addresses; DialStore connects a Store to them.
// Together they stand up the distributed database of the paper's Fig. 2.
func ServeGraph(g *Graph, p int) (servers []*kv.Server, addrs []string, err error) {
	return kv.ServeGraph(g, p)
}

// DialStore connects to storage nodes started by ServeGraph (or any
// kv.Serve deployment).
func DialStore(addrs []string, numVertices int) (*kv.Client, error) {
	return kv.Dial(addrs, numVertices)
}

// OpenDisk memory-maps an immutable CSR store file built by
// `benu-store build` (internal/csr) and serves it zero-copy through the
// Store interface; graphs larger than RAM enumerate at page-cache
// speed. Per-partition files compose with NewPartitionedStore or
// NewReplicatedStore — see docs/STORAGE.md.
func OpenDisk(path string) (*kv.Disk, error) { return kv.OpenDisk(path, nil) }

// NewPartitionedStore routes reads across hash partitions (vertex v
// lives in parts[v mod len(parts)]): the composition step for sharded
// deployments of OpenDisk files or any other per-partition stores.
func NewPartitionedStore(parts []Store, numVertices int) Store {
	return kv.NewPartitioned(parts, numVertices)
}

// NewReplicatedStore extends the partition router to N replicas per
// partition with deterministic read fan-out and breaker-driven
// failover: replicas[p][r] is replica r of partition p. See
// docs/STORAGE.md for the failover semantics and the store.replica.*
// metrics.
func NewReplicatedStore(replicas [][]Store, numVertices int, opts ReplicatedStoreOptions) (Store, error) {
	return kv.NewReplicated(replicas, numVertices, opts)
}

// ReplicatedStoreOptions configures NewReplicatedStore.
type ReplicatedStoreOptions = kv.ReplicatedOptions

// BruteForceCount counts matches by plain backtracking — the reference
// implementation used as ground truth in this repository's tests.
func BruteForceCount(p *Pattern, g *Graph) int64 {
	return graph.RefCount(p, g, graph.NewTotalOrder(g))
}

// SyntheticGraph generates the scaled synthetic stand-in dataset with the
// given preset name (as, lj, ok, uk, fs).
func SyntheticGraph(preset string) (*Graph, error) {
	p, err := gen.PresetByName(preset)
	if err != nil {
		return nil, err
	}
	return p.Cached(), nil
}

// Compile lowers a plan for manual task-level execution (exec.Executor);
// most callers want Count/Enumerate instead.
func Compile(pl *ExecutionPlan) (*exec.Program, error) { return exec.Compile(pl) }

// DeltaEnumerator answers dynamic-graph queries: the matches created by
// inserting one data edge (or destroyed by removing one).
type DeltaEnumerator = exec.DeltaEnumerator

// NewDeltaEnumerator prepares anchored plans for delta queries on p.
// Count the new matches after inserting (a, b) into a kv.Mutable store:
//
//	d, _ := benu.NewDeltaEnumerator(p)
//	store.AddEdge(a, b)
//	src := exec.StoreSource{S: store}
//	n, _ := d.Count(src, store.NumVertices(), ord, a, b, exec.Options{})
func NewDeltaEnumerator(p *Pattern) (*DeltaEnumerator, error) {
	return exec.NewDeltaEnumerator(p, plan.OptimizedUncompressed)
}

// NewMutableStore wraps a graph snapshot as an updatable adjacency store
// (AddEdge/RemoveEdge visible to subsequent queries with zero index
// maintenance — the paper's §I argument against indexed competitors).
func NewMutableStore(g *Graph) *kv.Mutable { return kv.NewMutable(g) }
