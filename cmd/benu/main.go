// Command benu runs a distributed subgraph enumeration end to end: it
// loads (or generates) a data graph, plans the pattern, executes the plan
// on the simulated cluster, and reports counts plus cost metrics.
//
// Usage:
//
//	benu -pattern q4 -preset ok
//	benu -pattern clique4 -graph edges.txt -workers 8 -threads 4
//	benu -pattern triangle -preset as -uncompressed -v
//	benu -pattern q4 -preset ok -metrics
//	benu -pattern square -preset as -output results.vcbc
//	benu -pattern q4 -preset as -csr as.csr   # adjacency from benu-store CSR files
//	benu -pattern triangle -preset as -prefetch -compact -retry 0
//
// -prefetch and -compact pick each machine's data plane: batched fetches
// ahead of demand, and varint-delta lists in cache and on the wire.
// -retry N gives every store call N+1 attempts, each bounded by
// -deadline when one is set, and every task N re-executions; -retry 0
// fails the run on the first fault, -deadline or not.
//
// -output streams the results to a file: a VCBC-compressed stream for
// compressed plans (count or expand it with benu-decode), plain
// space-separated matches otherwise. The run works on the graph
// relabelled by ≺ (see cmd/internal/cli), and the file reports the ids
// of the input graph. -csr takes only files benu-store built in that id
// space. -metrics prints the observability snapshot of the run — every
// counter, gauge, and histogram the runtime collected (see
// docs/METRICS.md); -metrics-json writes the same snapshot as JSON to a
// file.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"benu/cmd/internal/cli"
	"benu/internal/cluster"
	"benu/internal/csr"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/resilience"
	"benu/internal/vcbc"
)

func main() {
	if err := run(parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "benu:", err)
		os.Exit(1)
	}
}

// parseFlags reads the command line into a runConfig; like flag.Parse it
// exits on a malformed one.
func parseFlags(args []string) runConfig {
	var rc runConfig
	_ = newFlagSet(&rc).Parse(args) // ExitOnError: Parse exits instead of returning an error
	return rc
}

// newFlagSet binds benu's flags to rc: the ones it shares with
// benu-master through package cli, then its own.
func newFlagSet(rc *runConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("benu", flag.ExitOnError)
	cli.Register(fs, cli.Benu, map[string]any{
		"pattern": &rc.pattern, "graph": &rc.graphPath, "preset": &rc.preset,
		"tau": &rc.tau, "retry": &rc.retry, "uncompressed": &rc.uncompressed,
		"degree-filter": &rc.degreeFilter, "prefetch": &rc.prefetch,
		"metrics": &rc.metrics, "v": &rc.verbose,
	})
	fs.IntVar(&rc.workers, "workers", 4, "simulated worker machines")
	fs.IntVar(&rc.threads, "threads", 4, "working threads per machine")
	fs.Float64Var(&rc.cacheRel, "cache", 1.0, "DB cache capacity as a fraction of the data graph size")
	fs.BoolVar(&rc.cliqueCache, "clique-cache", false, "generalize the triangle cache to pattern cliques (§IV-B extension)")
	fs.BoolVar(&rc.compact, "compact", false, "use the compact varint-delta adjacency encoding in cache and fetches")
	fs.StringVar(&rc.csr, "csr", "", "serve adjacency from mmap'd CSR file(s) built by benu-store: a single file, or the prefix of <path>.<part> shards")
	fs.StringVar(&rc.output, "output", "", "write results to this file (VCBC stream for compressed plans, text otherwise; decode with benu-decode)")
	fs.StringVar(&rc.metricsJSON, "metrics-json", "", "write the run's metrics snapshot as JSON to this file")
	fs.DurationVar(&rc.deadline, "deadline", 0, "per-store-call deadline, e.g. 500ms (0 = none)")
	return fs
}

// runConfig carries the parsed command-line options.
type runConfig struct {
	pattern, graphPath, preset string
	workers, threads, tau      int
	cacheRel                   float64
	uncompressed               bool
	degreeFilter, cliqueCache  bool
	output                     string
	verbose                    bool
	metrics                    bool
	metricsJSON                string
	prefetch                   bool
	compact                    bool
	csr                        string
	retry                      int
	deadline                   time.Duration
}

func run(rc runConfig) error {
	g, best, err := cli.Load(rc.pattern, rc.graphPath, rc.preset, rc.uncompressed, rc.degreeFilter, rc.cliqueCache)
	if err != nil {
		return err
	}
	fmt.Printf("plan: %d instructions, est. comm=%.3g comp=%.3g (planning %s, alpha=%d beta=%d)\n",
		len(best.Plan.Instrs), best.Cost.Communication, best.Cost.Computation,
		best.Stats.Elapsed.Round(1e6), best.Stats.Alpha, best.Stats.Beta)
	if rc.verbose {
		fmt.Println(best.Plan)
	}

	ord := graph.NewTotalOrder(g) // the identity: g is relabelled by ≺
	cfg := cluster.Defaults(g)
	cfg.Workers = rc.workers
	cfg.ThreadsPerWorker = rc.threads
	cfg.CacheBytes = int64(rc.cacheRel * float64(g.SizeBytes()))
	cfg.Tau = rc.tau
	cfg.TaskRetries = rc.retry
	cfg.Prefetch = rc.prefetch
	cfg.CompactAdjacency = rc.compact

	// A private registry isolates the snapshot to exactly this run.
	var reg *obs.Registry
	if rc.metrics || rc.metricsJSON != "" {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	var store kv.Store
	if rc.csr != "" {
		s, closeStores, err := openDiskStore(rc.csr, g.NumVertices(), reg)
		if err != nil {
			return err
		}
		defer closeStores()
		store = s
	} else {
		store = kv.NewLocal(g)
	}
	if reg != nil {
		store = kv.ObserveStore(store, reg)
	}

	store = resilient(store, rc.retry, rc.deadline, reg)

	var finishOutput func() error
	if rc.output != "" {
		f, err := os.Create(rc.output)
		if err != nil {
			return err
		}
		var mu sync.Mutex
		if best.Plan.Compressed {
			sw, err := vcbc.NewWriter(f, coverList(best.Plan), best.Plan.Free, best.Plan.FreeOrderConstraints)
			if err != nil {
				f.Close()
				return err
			}
			var in vcbc.Code
			cfg.EmitCode = func(c *vcbc.Code) bool {
				mu.Lock()
				defer mu.Unlock()
				inputCode(&in, c, g)
				return sw.Write(&in) == nil
			}
			finishOutput = func() error {
				if err := sw.Flush(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
		} else {
			bw := bufio.NewWriter(f)
			cfg.Emit = func(m []int64) bool {
				mu.Lock()
				defer mu.Unlock()
				for i, v := range m {
					if i > 0 {
						fmt.Fprint(bw, " ")
					}
					fmt.Fprint(bw, g.InputID(v))
				}
				fmt.Fprintln(bw)
				return true
			}
			finishOutput = func() error {
				if err := bw.Flush(); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
		}
	}

	res, err := cluster.Run(best.Plan, store, ord, g.Degree, cfg)
	if err != nil {
		return err
	}
	if finishOutput != nil {
		if err := finishOutput(); err != nil {
			return fmt.Errorf("writing output: %w", err)
		}
		fmt.Printf("results written to %s\n", rc.output)
	}

	fmt.Printf("matches: %d", res.Matches)
	if best.Plan.Compressed {
		fmt.Printf(" (from %d VCBC codes, %.1fx compression)",
			res.Codes, float64(res.Matches*int64(best.Plan.Pattern.NumVertices())*8)/float64(max64(res.ResultBytes, 1)))
	}
	fmt.Println()
	fmt.Printf("time: %s  tasks: %d (%d split)\n", res.Wall.Round(1e6), res.Tasks, res.SplitTasks)
	if res.TasksRetried > 0 {
		fmt.Printf("fault tolerance: %d task re-executions healed transient failures\n", res.TasksRetried)
	}
	fmt.Printf("communication: %d DB queries, %.2f MB fetched, cache hit rate %.1f%%\n",
		res.DBQueries, float64(res.BytesFetched)/(1<<20), res.CacheHitRate*100)
	if rc.prefetch || rc.compact {
		fmt.Printf("data plane: %d store trips (%.1f keys/trip), prefetch=%v compact=%v\n",
			res.StoreTrips, float64(res.DBQueries)/float64(max64(res.StoreTrips, 1)),
			rc.prefetch, rc.compact)
	}
	if rc.verbose {
		for _, w := range res.PerWorker {
			fmt.Printf("  worker %d: tasks=%d busy=%s matches=%d remoteQ=%d cacheHits=%d\n",
				w.Machine, w.Tasks, w.BusyTime.Round(1e6), w.Exec.Matches, w.RemoteQ, w.Cache.Hits)
		}
	}
	if reg != nil {
		snap := reg.Snapshot()
		if rc.metrics {
			fmt.Println("\nmetrics snapshot:")
			if err := snap.WriteText(os.Stdout); err != nil {
				return err
			}
		}
		if rc.metricsJSON != "" {
			data, err := snap.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(rc.metricsJSON, data, 0o644); err != nil {
				return fmt.Errorf("writing metrics: %w", err)
			}
			fmt.Printf("metrics written to %s\n", rc.metricsJSON)
		}
	}
	return nil
}

// resilient is the store-call half of -retry and -deadline (the cluster's
// task re-execution budget is the other): a resilient decorator wrapping
// store outermost, so latency observation below it times each raw
// attempt, with retry+1 attempts per call. -retry 0 without -deadline
// leaves store bare, and the first fault fails the run.
func resilient(store kv.Store, retry int, deadline time.Duration, reg *obs.Registry) kv.Store {
	if retry <= 0 && deadline <= 0 {
		return store
	}
	pol := resilience.DefaultPolicy()
	pol.MaxAttempts = retry + 1
	pol.Timeout = deadline
	return kv.NewResilient(store, kv.ResilientOptions{Policy: pol, Obs: reg})
}

// inputCode sets dst to c in the ids of the graph g was relabelled from,
// each image set sorted again. dst's slices are reused across calls.
func inputCode(dst, c *vcbc.Code, g *graph.Graph) {
	dst.CoverVertices, dst.FreeVertices = c.CoverVertices, c.FreeVertices
	dst.Helve = dst.Helve[:0]
	for _, v := range c.Helve {
		dst.Helve = append(dst.Helve, g.InputID(v))
	}
	for len(dst.Images) < len(c.Images) {
		dst.Images = append(dst.Images, nil)
	}
	dst.Images = dst.Images[:len(c.Images)]
	for i, img := range c.Images {
		out := dst.Images[i][:0]
		for _, v := range img {
			out = append(out, g.InputID(v))
		}
		slices.Sort(out)
		dst.Images[i] = out
	}
}

// coverList returns the cover pattern vertices (ascending) of a
// compressed plan.
func coverList(pl *plan.Plan) []int {
	inFree := make(map[int]bool, len(pl.Free))
	for _, v := range pl.Free {
		inFree[v] = true
	}
	var out []int
	for v := 0; v < pl.Pattern.NumVertices(); v++ {
		if !inFree[v] {
			out = append(out, v)
		}
	}
	return out
}

// openDiskStore opens the CSR file(s) written by `benu-store build` at
// path and composes them into one Store: a single whole-graph file
// serves directly, per-partition shards (<path>.0 … <path>.P-1)
// compose through the partition router. Every file must be flagged
// degree-ordered (csr.ErrNotDegreeOrdered otherwise): the run's ids are
// the relabelled ones. The returned closer releases every mapping; call
// it only after the run is drained.
func openDiskStore(path string, n int, reg *obs.Registry) (kv.Store, func(), error) {
	open := func(p string) (*kv.Disk, error) {
		d, err := kv.OpenDisk(p, reg)
		if err == nil && !d.DegreeOrdered() {
			d.Close()
			return nil, fmt.Errorf("%s: %w", p, csr.ErrNotDegreeOrdered)
		}
		return d, err
	}
	if _, err := os.Stat(path); err == nil {
		d, err := open(path)
		if err != nil {
			return nil, nil, err
		}
		if _, parts := d.Partition(); parts != 1 {
			d.Close()
			return nil, nil, fmt.Errorf("%s holds one of %d partitions; pass the shard prefix instead", path, parts)
		}
		if d.NumVertices() != n {
			d.Close()
			return nil, nil, fmt.Errorf("%s stores %d vertices, data graph has %d", path, d.NumVertices(), n)
		}
		return d, func() { d.Close() }, nil
	}
	first, err := open(path + ".0")
	if err != nil {
		return nil, nil, fmt.Errorf("no CSR file at %s or %s.0: %w", path, path, err)
	}
	_, parts := first.Partition()
	disks := []*kv.Disk{first}
	closeAll := func() {
		for _, d := range disks {
			d.Close()
		}
	}
	for p := 1; p < parts; p++ {
		d, err := open(fmt.Sprintf("%s.%d", path, p))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		disks = append(disks, d)
	}
	stores := make([]kv.Store, parts)
	for p, d := range disks {
		if gotPart, gotParts := d.Partition(); gotPart != p || gotParts != parts {
			closeAll()
			return nil, nil, fmt.Errorf("%s.%d holds partition %d/%d, want %d/%d", path, p, gotPart, gotParts, p, parts)
		}
		if d.NumVertices() != n {
			closeAll()
			return nil, nil, fmt.Errorf("%s.%d stores %d vertices, data graph has %d", path, p, d.NumVertices(), n)
		}
		stores[p] = d
	}
	return kv.NewPartitioned(stores, n), closeAll, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
