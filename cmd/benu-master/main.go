// Command benu-master is the control-plane master of a networked BENU
// deployment: it loads (or generates) a data graph, plans the pattern,
// serves the graph's adjacency partitions over TCP (internal/kv), and
// serves the resulting task queue to benu-worker processes over the
// Sched wire protocol (internal/cluster/sched) — pull-based scheduling
// with work stealing and lease-expiry task re-execution.
//
// Usage:
//
//	benu-master -pattern q4 -preset as -listen 127.0.0.1:7077
//	benu-worker -master 127.0.0.1:7077 -threads 4   (on each worker machine)
//
// The master exits once every task has committed, printing the match
// count and scheduling summary. Workers that join late, die mid-task,
// or straggle are handled by the protocol: the run completes as long as
// at least one worker survives.
//
// With -journal the master writes a crash-consistent journal of the job
// and every committed task, so a master killed mid-run can be restarted
// with the same flags and journal path: it replays the completed work,
// bumps the epoch to fence the dead incarnation's stragglers, and
// serves only the remaining tasks. Pair it with -store-listen so the
// restarted process serves the adjacency partitions on the same
// addresses the surviving workers already dialed.
//
// Workers run the batched data plane by default (-prefetch, on): each
// lease batch's start vertices, then the union of its tasks' first-level
// candidates, are fetched in a few batched store trips instead of one or
// more per task. Turn it off (-prefetch=false) to reproduce the paper's
// one-query-per-miss cache behaviour (Fig. 8), or for a compute-bound job
// on a graph that fits the workers' caches, where there is no trip to
// save and the all-resident checks cost 2-3 % (docs/PERFORMANCE.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"benu/cmd/internal/cli"
	"benu/internal/cluster/sched"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
)

func main() {
	if err := run(parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "benu-master:", err)
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

// newFlagSet binds benu-master's flags to rc: the ones it shares with
// benu through package cli, then its own.
func newFlagSet(rc *runConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("benu-master", flag.ExitOnError)
	cli.Register(fs, cli.Master, map[string]any{
		"pattern": &rc.pattern, "graph": &rc.graphPath, "preset": &rc.preset,
		"tau": &rc.tau, "retry": &rc.retry, "uncompressed": &rc.uncompressed,
		"degree-filter": &rc.degreeFilter, "prefetch": &rc.prefetch,
		"metrics": &rc.metrics, "v": &rc.verbose,
	})
	fs.StringVar(&rc.listen, "listen", "127.0.0.1:7077", "address to serve the task queue on")
	fs.StringVar(&rc.journal, "journal", "", "crash-recovery journal path; reusing a dead master's journal resumes its run")
	fs.IntVar(&rc.partitions, "store-partitions", 2, "adjacency storage nodes served from this process")
	fs.StringVar(&rc.storeListen, "store-listen", "", "base host:port for the storage nodes (partition i served on port+i); empty picks ephemeral ports")
	fs.DurationVar(&rc.lease, "lease", 3*time.Second, "heartbeat silence tolerated before a worker's leases expire")
	return fs
}

// runConfig carries the parsed command-line options.
type runConfig struct {
	pattern, graphPath, preset string
	listen                     string
	journal                    string
	partitions                 int
	storeListen                string
	tau                        int
	uncompressed               bool
	degreeFilter               bool
	retry                      int
	lease                      time.Duration
	prefetch                   bool
	metrics                    bool
	verbose                    bool
}

// deployment is a started master plus the storage nodes it serves,
// separated from run so the end-to-end test can join in-process workers
// before waiting.
type deployment struct {
	master  *sched.Master
	servers []*kv.Server
	reg     *obs.Registry
}

func (d *deployment) close() {
	d.master.Close()
	for _, s := range d.servers {
		s.Close()
	}
}

func run(rc runConfig) error {
	d, err := start(rc)
	if err != nil {
		return err
	}
	defer d.close()
	fmt.Printf("master: serving tasks on %s (%d storage nodes, epoch %d)\n",
		d.master.Addr(), len(d.servers), d.master.Result().Epoch)
	if n := d.master.Result().Replayed; n > 0 {
		fmt.Printf("master: resumed from %s (%d tasks already committed)\n", rc.journal, n)
	}

	// A first SIGINT/SIGTERM shuts down gracefully: every committed task
	// is already fsync'd to the journal, so there is nothing to flush —
	// just stop serving and tell the operator how to resume. A second
	// signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := d.master.Wait(ctx)
	if ctx.Err() != nil {
		stop()
		if rc.journal != "" {
			return fmt.Errorf("interrupted; resume with -journal %s", rc.journal)
		}
		return fmt.Errorf("interrupted (no -journal, run not resumable)")
	}
	if err != nil {
		return err
	}
	// Let parked workers pick up their Done replies before the deferred
	// close severs connections — otherwise they exit on an EOF.
	d.master.Drain(2 * time.Second)
	fmt.Printf("matches=%d tasks=%d (split=%d, replayed=%d) workers=%d steals=%d expired=%d retried=%d duplicates=%d stale=%d wall=%s\n",
		res.Matches, res.Tasks, res.SplitTasks, res.Replayed, res.WorkersJoined,
		res.Steals, res.LeasesExpired, res.TasksRetried, res.DuplicateReports,
		res.StaleCalls, res.Wall.Round(time.Millisecond))
	if rc.metrics {
		fmt.Print(d.reg.Snapshot().Text())
	}
	return nil
}

// start loads the graph, plans the pattern, binds the control-plane
// address, serves the storage nodes, and starts the master.
func start(rc runConfig) (*deployment, error) {
	g, best, err := cli.Load(rc.pattern, rc.graphPath, rc.preset, rc.uncompressed, rc.degreeFilter, false)
	if err != nil {
		return nil, err
	}
	if rc.verbose {
		fmt.Println(best.Plan)
	}

	if rc.partitions <= 0 {
		rc.partitions = 1
	}
	// Claim the control-plane address before the storage nodes open their
	// ephemeral listeners: when -listen names a port in the ephemeral
	// range, the kernel is free to hand that very port to a ":0" store
	// partition, and the master would then die on "address already in
	// use" with its workers spinning on "connection refused".
	ln, err := net.Listen("tcp", rc.listen)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", rc.listen, err)
	}
	servers, addrs, err := serveStores(g, rc.partitions, rc.storeListen)
	if err != nil {
		ln.Close()
		return nil, err
	}
	reg := obs.NewRegistry()
	m, err := sched.ServeMaster(ln, sched.MasterConfig{
		Plan:          best.Plan,
		NumVertices:   g.NumVertices(),
		Ord:           graph.NewTotalOrder(g),
		Degree:        g.Degree,
		LabelOf:       g.Label,
		Tau:           rc.tau,
		TaskRetries:   rc.retry,
		LeaseDuration: rc.lease,
		Prefetch:      rc.prefetch,
		StoreAddrs:    addrs,
		JournalPath:   rc.journal,
		Obs:           reg,
	})
	if err != nil {
		for _, s := range servers {
			s.Close()
		}
		return nil, err
	}
	return &deployment{master: m, servers: servers, reg: reg}, nil
}

// serveStores shards g over p storage nodes. With base == "" they take
// ephemeral loopback ports (kv.ServeGraph); with base == "host:port"
// partition i is served on port+i, so a restarted master reappears on
// the addresses its surviving workers already dialed — kv clients
// redial severed pool connections, crash recovery depends on it.
func serveStores(g *graph.Graph, p int, base string) ([]*kv.Server, []string, error) {
	if base == "" {
		return kv.ServeGraph(g, p)
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, nil, fmt.Errorf("-store-listen: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, nil, fmt.Errorf("-store-listen: bad port %q", portStr)
	}
	var servers []*kv.Server
	var addrs []string
	for i := 0; i < p; i++ {
		store := kv.NewMapStore(kv.Shard(g, i, p), g.NumVertices())
		srv, err := kv.Serve(net.JoinHostPort(host, strconv.Itoa(port+i)), store)
		if err != nil {
			for _, s := range servers {
				s.Close()
			}
			return nil, nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	return servers, addrs, nil
}
