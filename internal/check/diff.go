package check

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"benu/internal/cluster"
	"benu/internal/cluster/sched"
	"benu/internal/csr"
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

// Variant is one plan-optimization level of the cross-validation matrix.
type Variant struct {
	Name string
	Opts plan.Options
}

// Variants returns the plan levels every batch sweeps: the raw plan, the
// paper's three optimizations, the degree-filtered build, and the
// VCBC-compressed build.
func Variants() []Variant {
	return []Variant{
		{Name: "raw", Opts: plan.Options{}},
		{Name: "opt", Opts: plan.OptimizedUncompressed},
		{Name: "opt+df", Opts: plan.Options{CSE: true, Reorder: true, TriangleCache: true, DegreeFilter: true}},
		{Name: "vcbc", Opts: plan.AllOptions},
	}
}

// ShortVariants is the -short subset: raw / optimized / VCBC.
func ShortVariants() []Variant {
	all := Variants()
	return []Variant{all[0], all[1], all[3]}
}

// StoreWrap is middleware applied to every adjacency store a backend
// builds — the hook fault-injection tests use to place a kv.Faulty
// between the executor and the data.
type StoreWrap func(kv.Store) kv.Store

// Backend executes a plan against a data graph through one deployment
// shape and returns its Outcome. Run must also self-check internal
// consistency (emitted embeddings vs. reported count) and surface any
// disagreement as an error.
type Backend struct {
	Name string
	Run  func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error)
}

// Backends returns the execution backends of the matrix. wrap (nil =
// identity) is applied to each backend's store:
//
//   - "exec": the executor driven directly, single thread, uncached
//     source over the in-memory KV store — the minimal deployment.
//   - "batched": a simulated cluster over a hash-partitioned store, so
//     the partition-routing codepath (grouped keys, per-partition
//     round trips) is cross-validated against the single-store columns.
//   - "cluster-split": the full simulated cluster — several machines and
//     threads, a deliberately small DB cache (evictions), a tiny triangle
//     cache, and τ low enough that most start vertices split into
//     subtasks.
//   - "cluster-prefetch": the batched data plane — synchronous ENU-stage
//     prefetch, compact varint-delta adjacency encoding, a small batch
//     size so multi-batch prefetches occur, plus task splitting. Sync
//     mode keeps fault injection deterministic: batch errors surface on
//     the querying thread exactly like demand-fetch errors.
func Backends(wrap StoreWrap) []Backend {
	if wrap == nil {
		wrap = func(s kv.Store) kv.Store { return s }
	}
	return []Backend{
		{
			Name: "exec",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				prog, err := exec.Compile(pl)
				if err != nil {
					return nil, err
				}
				col := newCollector(pl, g, ord)
				opts := exec.Options{Obs: obs.NewRegistry()}
				col.hook(&opts.Emit, &opts.EmitCode)
				if pl.DegreeFiltered {
					opts.DegreeOf = g.Degree
				}
				if pl.Pattern.Labeled() {
					opts.LabelOf = g.Label
				}
				src := exec.NewCachedSource(wrap(kv.NewLocal(g)), 0)
				stats, err := exec.RunAll(prog, src, g.NumVertices(), ord, opts)
				if err != nil {
					return nil, err
				}
				return col.outcome(stats.Matches)
			},
		},
		{
			Name: "batched",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				parts := make([]kv.Store, 3)
				for i := range parts {
					parts[i] = kv.NewMapStore(kv.Shard(g, i, len(parts)), g.NumVertices())
				}
				store := wrap(kv.NewPartitioned(parts, g.NumVertices()))
				cfg := cluster.Config{
					Workers:          2,
					ThreadsPerWorker: 2,
					CacheBytes:       g.SizeBytes() * 2,
					Obs:              obs.NewRegistry(),
				}
				return runCluster(pl, g, ord, store, cfg)
			},
		},
		{
			Name: "cluster-split",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				cfg := cluster.Config{
					Workers:          3,
					ThreadsPerWorker: 2,
					CacheBytes:       g.SizeBytes()/2 + 1,
					Spec:             cluster.Spec{Tau: 4, TriangleCacheEntries: 64},
					Obs:              obs.NewRegistry(),
				}
				return runCluster(pl, g, ord, wrap(kv.NewLocal(g)), cfg)
			},
		},
		{
			Name: "cluster-prefetch",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				cfg := cluster.Config{
					Workers:           2,
					ThreadsPerWorker:  2,
					CacheBytes:        g.SizeBytes() * 2,
					Spec:              cluster.Spec{Tau: 4, Prefetch: true, CompactAdjacency: true},
					PrefetchBatchSize: 8,
					Obs:               obs.NewRegistry(),
				}
				return runCluster(pl, g, ord, wrap(kv.NewLocal(g)), cfg)
			},
		},
		{
			// "disk": the mmap'd CSR backend — the graph is serialized to
			// two hash-partition files in a temp dir, each opened as a
			// kv.Disk and composed under kv.NewPartitioned; compact
			// adjacency end to end (disk lists are compact natively).
			Name: "disk",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				dir, err := os.MkdirTemp("", "benu-csr-")
				if err != nil {
					return nil, err
				}
				defer os.RemoveAll(dir)
				const parts = 2
				reg := obs.NewRegistry()
				stores := make([]kv.Store, parts)
				for i := 0; i < parts; i++ {
					path := filepath.Join(dir, fmt.Sprintf("part%d.csr", i))
					if err := csr.WriteGraphFile(path, g, parts, i); err != nil {
						return nil, err
					}
					d, err := kv.OpenDisk(path, reg)
					if err != nil {
						return nil, err
					}
					defer d.Close()
					stores[i] = d
				}
				cfg := cluster.Config{
					Workers:          2,
					ThreadsPerWorker: 2,
					CacheBytes:       g.SizeBytes() * 2,
					Spec:             cluster.Spec{Tau: 4, CompactAdjacency: true},
					Obs:              obs.NewRegistry(),
				}
				return runCluster(pl, g, ord, wrap(kv.NewPartitioned(stores, g.NumVertices())), cfg)
			},
		},
		{
			// "replica": 2 partitions × 2 replicas with deterministic read
			// fan-out — on a healthy store the replica router must be
			// invisible (identical counts and embedding sets).
			Name: "replica",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				store, err := replicatedStore(g, wrap, 2, 2, kv.ReplicatedOptions{Obs: obs.NewRegistry()})
				if err != nil {
					return nil, err
				}
				cfg := cluster.Config{
					Workers:          2,
					ThreadsPerWorker: 2,
					CacheBytes:       g.SizeBytes() * 2,
					Spec:             cluster.Spec{Tau: 4},
					Obs:              obs.NewRegistry(),
				}
				return runCluster(pl, g, ord, store, cfg)
			},
		},
		{
			// "net": the networked control plane — a real master and two
			// workers speaking the Sched wire protocol over loopback TCP,
			// pull-based scheduling with τ splitting. The multi-process
			// column of the matrix (separate executors, results only via
			// reports), minus the process boundary for speed.
			Name: "net",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				return runNet(pl, g, ord, wrap(kv.NewLocal(g)), sched.MasterConfig{Tau: 4}, 2, 2)
			},
		},
	}
}

// ResilientBackends returns the fault-tolerant execution columns of the
// matrix: the same simulated cluster run through each recovery layer.
// Under a transient StoreWrap (kv.Faulty with Transient set) they must
// produce results identical to the fault-free reference — counts AND
// canonical embedding sets — which is the differential proof that
// store-level retries and task re-execution are exactly-once. On
// healthy stores the layers are transparent, so these columns also run
// in the default matrix.
//
//   - "cluster-resilient": every store read goes through kv.Resilient
//     (bounded retries with microsecond backoff); the cluster itself
//     never sees a transient fault.
//   - "cluster-retry": the store surfaces faults raw and the master
//     re-executes failed tasks (Config.TaskRetries), exactly-once
//     accounting healing what the store would not.
//   - "cluster-resilient-retry": both layers stacked, the deployment
//     shape of the paper's HBase-retries-plus-MapReduce-re-execution.
func ResilientBackends(wrap StoreWrap) []Backend {
	if wrap == nil {
		wrap = func(s kv.Store) kv.Store { return s }
	}
	// Tiny deterministic backoff: chaos sweeps retry thousands of times,
	// so waiting real milliseconds would dominate the run.
	pol := resilience.Policy{
		MaxAttempts: 5,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  200 * time.Microsecond,
		Multiplier:  2,
		Seed:        1,
	}
	return []Backend{
		{
			Name: "cluster-resilient",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				store := kv.NewResilient(wrap(kv.NewLocal(g)), kv.ResilientOptions{
					Policy:         pol,
					DisableBreaker: true, // the sweep hammers one store; tripping is the other test's job
					Obs:            obs.NewRegistry(),
				})
				cfg := cluster.Config{
					Workers:          2,
					ThreadsPerWorker: 2,
					CacheBytes:       g.SizeBytes() * 2,
					Spec:             cluster.Spec{Tau: 4},
					Obs:              obs.NewRegistry(),
				}
				return runCluster(pl, g, ord, store, cfg)
			},
		},
		{
			Name: "cluster-retry",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				cfg := cluster.Config{
					Workers:          2,
					ThreadsPerWorker: 2,
					CacheBytes:       g.SizeBytes() * 2,
					Spec:             cluster.Spec{Tau: 4, TaskRetries: 8},
					Obs:              obs.NewRegistry(),
				}
				return runCluster(pl, g, ord, wrap(kv.NewLocal(g)), cfg)
			},
		},
		{
			Name: "cluster-resilient-retry",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				store := kv.NewResilient(wrap(kv.NewLocal(g)), kv.ResilientOptions{
					Policy:         resilience.Policy{MaxAttempts: 3, BaseBackoff: 20 * time.Microsecond, MaxBackoff: 200 * time.Microsecond, Multiplier: 2, Seed: 2},
					DisableBreaker: true,
					Obs:            obs.NewRegistry(),
				})
				cfg := cluster.Config{
					Workers:          3,
					ThreadsPerWorker: 2,
					CacheBytes:       g.SizeBytes()/2 + 1,
					Spec:             cluster.Spec{Tau: 4, TriangleCacheEntries: 64, TaskRetries: 8},
					Obs:              obs.NewRegistry(),
				}
				return runCluster(pl, g, ord, store, cfg)
			},
		},
		{
			// "replica-faulty": replica failover as the first recovery
			// layer — each replica is independently fault-wrapped, reads
			// fail over inside the partitioned store, and kv.Resilient on
			// top retries the rare moments when every replica of a
			// partition misbehaves at once. Under permanent faults every
			// replica fails identically, the replica set exhausts, and the
			// error surfaces through the retry budget — loud, never wrong.
			Name: "replica-faulty",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				inner, err := replicatedStore(g, wrap, 2, 2, kv.ReplicatedOptions{
					DisableBreaker: true, // µs-scale chaos sweeps would flap real cooldowns
					Obs:            obs.NewRegistry(),
				})
				if err != nil {
					return nil, err
				}
				store := kv.NewResilient(inner, kv.ResilientOptions{
					Policy:         pol,
					DisableBreaker: true,
					Obs:            obs.NewRegistry(),
				})
				cfg := cluster.Config{
					Workers:          2,
					ThreadsPerWorker: 2,
					CacheBytes:       g.SizeBytes() * 2,
					Spec:             cluster.Spec{Tau: 4},
					Obs:              obs.NewRegistry(),
				}
				return runCluster(pl, g, ord, store, cfg)
			},
		},
		{
			// "net-retry": the networked control plane with a task
			// re-execution budget — a failed attempt on a worker re-queues
			// the task, exactly-once commit healing what the store would
			// not. The wire analogue of "cluster-retry".
			Name: "net-retry",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				return runNet(pl, g, ord, wrap(kv.NewLocal(g)), sched.MasterConfig{Tau: 4, TaskRetries: 8}, 2, 2)
			},
		},
		{
			// "net-journal": the networked control plane committing every
			// task through the crash-recovery journal. On a healthy run
			// the journal is pure overhead, so this column proves the
			// write-ahead path changes nothing about the results; the
			// master-restart chaos test exercises the replay half.
			// NoSync because a matrix sweep fsyncing per task would
			// measure the disk, not the protocol.
			Name: "net-journal",
			Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
				dir, err := os.MkdirTemp("", "benu-net-journal-")
				if err != nil {
					return nil, err
				}
				defer os.RemoveAll(dir)
				cfg := sched.MasterConfig{
					Tau:           4,
					TaskRetries:   8,
					JournalPath:   filepath.Join(dir, "job.journal"),
					JournalNoSync: true,
				}
				return runNet(pl, g, ord, wrap(kv.NewLocal(g)), cfg, 2, 2)
			},
		},
	}
}

// replicatedStore builds the standard replica deployment of the matrix:
// parts hash partitions × reps replicas, each replica an independently
// wrapped MapStore copy of its partition (so fault injection is
// per-replica, the way real replica failures are independent).
func replicatedStore(g *graph.Graph, wrap StoreWrap, parts, reps int, opts kv.ReplicatedOptions) (*kv.Partitioned, error) {
	replicas := make([][]kv.Store, parts)
	for p := range replicas {
		shard := kv.Shard(g, p, parts)
		for r := 0; r < reps; r++ {
			replicas[p] = append(replicas[p], wrap(kv.NewMapStore(shard, g.NumVertices())))
		}
	}
	return kv.NewReplicated(replicas, g.NumVertices(), opts)
}

// runCluster executes pl on the simulated cluster and collects the
// Outcome, expanding VCBC codes when the plan is compressed.
func runCluster(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder, store kv.Store, cfg cluster.Config) (*Outcome, error) {
	col := newCollector(pl, g, ord)
	col.hook(&cfg.Emit, &cfg.EmitCode)
	if pl.Pattern.Labeled() {
		cfg.LabelOf = g.Label
	}
	res, err := cluster.Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		return nil, err
	}
	return col.outcome(res.Matches)
}

// runNet executes pl on the networked control plane (sched master plus
// workers over loopback TCP) and collects the Outcome the same way
// runCluster does — emissions travel inside task reports, so the
// collector sees exactly what the exactly-once commit admitted.
func runNet(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder, store kv.Store, cfg sched.MasterConfig, workers, threads int) (*Outcome, error) {
	col := newCollector(pl, g, ord)
	col.hook(&cfg.Emit, &cfg.EmitCode)
	cfg.Plan = pl
	cfg.NumVertices = g.NumVertices()
	cfg.Ord = ord
	cfg.Degree = g.Degree
	if pl.Pattern.Labeled() {
		cfg.LabelOf = g.Label
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	m, err := sched.StartMaster("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	var ws []*sched.Worker
	defer func() {
		for _, w := range ws {
			w.Close()
		}
	}()
	for i := 0; i < workers; i++ {
		w, err := sched.StartWorker(m.Addr(), sched.WorkerConfig{
			Threads:    threads,
			CacheBytes: g.SizeBytes() * 2,
			Store:      store,
			Obs:        cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	res, err := m.Wait(nil)
	if err != nil {
		return nil, err
	}
	return col.outcome(res.Matches)
}

// collector accumulates embeddings from concurrent emit callbacks and
// cross-checks them against the run's reported match count.
type collector struct {
	mu         sync.Mutex
	pl         *plan.Plan
	numV       int
	ord        *graph.TotalOrder
	embs       []string
	expandSum  int64 // Σ Code.Count over emitted codes (compressed plans)
	expandErrs int
}

func newCollector(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) *collector {
	return &collector{pl: pl, numV: g.NumVertices(), ord: ord}
}

// hook installs the right callback for the plan's result shape.
func (c *collector) hook(emit *func([]int64) bool, emitCode *func(*vcbc.Code) bool) {
	if c.pl.Compressed {
		*emitCode = func(code *vcbc.Code) bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.expandSum += code.Count(c.pl.FreeOrderConstraints, c.ord)
			if !code.Expand(c.pl.Pattern.NumVertices(), c.pl.FreeOrderConstraints, c.ord, func(f []int64) bool {
				c.embs = append(c.embs, Canon(f))
				return true
			}) {
				c.expandErrs++
			}
			return true
		}
		return
	}
	*emit = func(f []int64) bool {
		s := Canon(f)
		c.mu.Lock()
		c.embs = append(c.embs, s)
		c.mu.Unlock()
		return true
	}
}

// outcome finalizes the collection, verifying the backend agrees with
// itself before it is compared against the oracle: the emitted embedding
// count must equal the reported match count, and for compressed plans the
// analytic expansion count (Code.Count) must agree with the actual
// expansion (Code.Expand).
func (c *collector) outcome(reported int64) (*Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expandErrs > 0 {
		return nil, fmt.Errorf("check: %d codes stopped expanding early", c.expandErrs)
	}
	if int64(len(c.embs)) != reported {
		return nil, fmt.Errorf("check: backend inconsistent with itself: %d embeddings emitted, %d matches reported",
			len(c.embs), reported)
	}
	if c.pl.Compressed && c.expandSum != reported {
		return nil, fmt.Errorf("check: Code.Count sum %d disagrees with reported matches %d", c.expandSum, reported)
	}
	sort.Strings(c.embs)
	return &Outcome{Count: reported, Embeddings: c.embs}, nil
}

// BuildPlan generates the best plan for p on g under opts, exactly as the
// public facade does.
func BuildPlan(p *graph.Pattern, g *graph.Graph, opts plan.Options) (*plan.Plan, error) {
	st := estimate.NewStats(g, estimate.MaxMomentDefault)
	res, err := plan.GenerateBestPlan(p, st, opts)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// Mismatch is one differential failure, shrunk and ready to report.
type Mismatch struct {
	Pattern string
	Variant string
	Backend string
	// Seed regenerates the original failing graph:
	// gen.RandomDataGraph(Spec, Seed), run through graph.Relabel when
	// Relabelled.
	Seed       int64
	Spec       gen.RandomGraphSpec
	Relabelled bool
	// Graph is the shrunken counterexample, in the id space it fails in
	// (Shrunk reports whether shrinking reduced the original).
	Graph  *graph.Graph
	Shrunk bool
	// WantCount/GotCount are the counts on Graph; Missing/Extra sample up
	// to five canonical embeddings from each side of the difference.
	WantCount, GotCount int64
	Missing, Extra      []string
	// Err is set when the backend failed outright instead of miscounting.
	Err error
}

func (m *Mismatch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential mismatch: pattern=%s variant=%s backend=%s seed=%d relabelled=%v\n",
		m.Pattern, m.Variant, m.Backend, m.Seed, m.Relabelled)
	if m.Err != nil {
		fmt.Fprintf(&b, "  backend error: %v\n", m.Err)
	} else {
		fmt.Fprintf(&b, "  counts: reference=%d backend=%d\n", m.WantCount, m.GotCount)
		if len(m.Missing) > 0 {
			fmt.Fprintf(&b, "  missing embeddings (sample): %v\n", m.Missing)
		}
		if len(m.Extra) > 0 {
			fmt.Fprintf(&b, "  extra embeddings (sample): %v\n", m.Extra)
		}
	}
	fmt.Fprintf(&b, "  counterexample (%d vertices, shrunk=%v): %v\n",
		m.Graph.NumVertices(), m.Shrunk, m.Graph.EdgeList())
	fmt.Fprintf(&b, "  reproduce: g := gen.RandomDataGraph(%+v, %d); see docs/TESTING.md\n", m.Spec, m.Seed)
	return b.String()
}

// Validate cross-checks one cell of the matrix on one graph: generate the
// plan, run the backend, compare against the oracle. It returns nil when
// the backend and the reference agree exactly (counts and embedding
// sets), and a Mismatch (not yet shrunk) otherwise.
func Validate(p *graph.Pattern, g *graph.Graph, v Variant, b Backend) *Mismatch {
	ord := graph.NewTotalOrder(g)
	ref := Reference(p, g, ord)
	pl, err := BuildPlan(p, g, v.Opts)
	if err != nil {
		return &Mismatch{Pattern: p.Name(), Variant: v.Name, Backend: b.Name, Graph: g, Err: err}
	}
	got, err := b.Run(pl, g, ord)
	if err != nil {
		return &Mismatch{Pattern: p.Name(), Variant: v.Name, Backend: b.Name, Graph: g, Err: err}
	}
	if got.Count == ref.Count && equalStrings(got.Embeddings, ref.Embeddings) {
		return nil
	}
	missing, extra := DiffEmbeddings(ref.Embeddings, got.Embeddings)
	return &Mismatch{
		Pattern:   p.Name(),
		Variant:   v.Name,
		Backend:   b.Name,
		Graph:     g,
		WantCount: ref.Count,
		GotCount:  got.Count,
		Missing:   sample(missing, 5),
		Extra:     sample(extra, 5),
	}
}

// BatchConfig parameterizes RunBatch. Zero-value fields default to the
// full matrix (all Variants, all Backends with no store wrap, Graphs=3,
// the default RandomGraphSpec, MaxShrinkChecks=400).
type BatchConfig struct {
	// Seed is the batch's base seed; graph i uses Seed+i.
	Seed   int64
	Graphs int
	Spec   gen.RandomGraphSpec
	// Patterns must be non-empty.
	Patterns []*graph.Pattern
	Variants []Variant
	Backends []Backend
	// MaxShrinkChecks bounds the predicate evaluations spent shrinking
	// each failing cell.
	MaxShrinkChecks int
}

func (c *BatchConfig) normalize() {
	if c.Graphs <= 0 {
		c.Graphs = 3
	}
	c.Spec.Normalize()
	if len(c.Variants) == 0 {
		c.Variants = Variants()
	}
	if len(c.Backends) == 0 {
		c.Backends = append(Backends(nil), ResilientBackends(nil)...)
	}
	if c.MaxShrinkChecks <= 0 {
		c.MaxShrinkChecks = 400
	}
}

// RunBatch sweeps the full matrix and returns every mismatch found, each
// shrunk to a minimal counterexample. An empty slice means the executor
// stack and the oracle agreed on every cell. Every graph runs twice: as
// generated, under its (degree, id) rank order — the executor's rank
// path — and relabelled by ≺ (graph.Relabel), under its identity order —
// the bound path, the id space the binaries run in. The sweep is
// deterministic in cfg.Seed.
func RunBatch(cfg BatchConfig) []*Mismatch {
	cfg.normalize()
	var out []*Mismatch
	for i := 0; i < cfg.Graphs; i++ {
		seed := cfg.Seed + int64(i)
		g0 := gen.RandomDataGraph(cfg.Spec, seed)
		for _, relabelled := range []bool{false, true} {
			g := inForm(g0, relabelled)
			for _, p := range cfg.Patterns {
				for _, v := range cfg.Variants {
					for _, b := range cfg.Backends {
						m := Validate(p, g, v, b)
						if m == nil {
							continue
						}
						m.Seed = seed
						m.Spec = cfg.Spec
						m.Relabelled = relabelled
						shrinkMismatch(m, p, v, b, cfg.MaxShrinkChecks)
						out = append(out, m)
					}
				}
			}
		}
	}
	return out
}

// inForm returns g relabelled by ≺ when relabelled, else g itself.
func inForm(g *graph.Graph, relabelled bool) *graph.Graph {
	if relabelled {
		return graph.Relabel(g)
	}
	return g
}

// shrinkMismatch minimizes m.Graph under "this cell still fails the same
// way" and refreshes the mismatch details against the shrunken graph. The
// predicate matches the failure kind (backend error vs. result mismatch)
// so a miscount cannot degenerate into, say, a plan-generation error on a
// near-empty graph. A relabelled failure shrinks in its id space: each
// smaller graph is relabelled again before it runs.
func shrinkMismatch(m *Mismatch, p *graph.Pattern, v Variant, b Backend, maxChecks int) {
	origErr := m.Err != nil
	orig := m.Graph
	small := Shrink(orig, func(g2 *graph.Graph) bool {
		m2 := Validate(p, inForm(g2, m.Relabelled), v, b)
		return m2 != nil && (m2.Err != nil) == origErr
	}, maxChecks)
	if small == orig {
		return
	}
	small = inForm(small, m.Relabelled)
	if m2 := Validate(p, small, v, b); m2 != nil {
		m.Graph = small
		m.Shrunk = true
		m.WantCount, m.GotCount = m2.WantCount, m2.GotCount
		m.Missing, m.Extra = m2.Missing, m2.Extra
		m.Err = m2.Err
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sample(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
