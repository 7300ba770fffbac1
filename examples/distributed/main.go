// Distributed deployment: the full Fig. 2 architecture over real TCP.
//
// The data graph is hash-partitioned across three storage-node processes
// (kv.Serve storage nodes on loopback — HBase's role in the paper), and a
// simulated cluster of worker machines queries them on demand through
// per-machine database caches. The run prints the communication ledger:
// queries answered by the cache versus queries that crossed the network.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"benu/internal/cluster"
	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/plan"
)

func main() {
	preset, err := gen.PresetByName("lj")
	if err != nil {
		log.Fatal(err)
	}
	g := preset.Cached()
	fmt.Printf("data graph: %s (N=%d, M=%d, %d KB)\n",
		preset.FullName, g.NumVertices(), g.NumEdges(), g.SizeBytes()/1024)

	// Stand up the distributed database: 3 storage nodes on loopback.
	const storageNodes = 3
	servers, addrs, err := kv.ServeGraph(g, storageNodes)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	fmt.Printf("storage nodes: %v\n", addrs)

	client, err := kv.Dial(addrs, g.NumVertices())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Plan and run q4 with everything on: compression, caching, splitting.
	p := gen.Q(4)
	st := estimate.NewStats(g, estimate.MaxMomentDefault)
	best, err := plan.GenerateBestPlan(p, st, plan.AllOptions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npattern %s, plan with %d instructions (%d DBQ)\n",
		p.Name(), len(best.Plan.Instrs), best.Plan.NumDBQ())

	ord := graph.NewTotalOrder(g)
	cfg := cluster.Defaults(g)
	cfg.Workers = 4
	cfg.ThreadsPerWorker = 4
	cfg.CacheBytes = g.SizeBytes() / 2 // cache half the graph per machine
	res, err := cluster.Run(best.Plan, client, ord, g.Degree, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nmatches: %d (via %d compressed codes)\n", res.Matches, res.Codes)
	fmt.Printf("wall time: %s over %d tasks on %d machines × %d threads\n",
		res.Wall.Round(1e6), res.Tasks, cfg.Workers, cfg.ThreadsPerWorker)
	fmt.Printf("\ncommunication ledger:\n")
	fmt.Printf("  network queries: %d (%.2f MB over TCP)\n", res.DBQueries, float64(res.BytesFetched)/(1<<20))
	fmt.Printf("  cache hit rate:  %.1f%% across machines\n", res.CacheHitRate*100)
	for _, w := range res.PerWorker {
		fmt.Printf("  machine %d: %d tasks, %d remote queries, %d cache hits, %d evictions\n",
			w.Machine, w.Tasks, w.RemoteQ, w.Cache.Hits, w.Cache.Evictions)
	}
	fmt.Printf("\nstore-side view: %d RPCs served\n", client.Metrics().Queries())
}
