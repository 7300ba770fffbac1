package exec

import (
	"bufio"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"strings"
	"testing"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/plan"
)

// nodesProcEnv marks a re-exec of the test binary as the storage tier of
// BenchmarkWindowFrontier.
const nodesProcEnv = "BENU_EXEC_BENCH_NODES"

// TestMain turns a re-exec'd test binary into two storage nodes over the
// tri-lib graph: it prints their addresses and serves until stdin closes
// (kv's BenchmarkTCPBatchTwoPartitions says why the nodes need a process
// of their own).
func TestMain(m *testing.M) {
	if os.Getenv(nodesProcEnv) == "" {
		os.Exit(m.Run())
	}
	_, addrs, err := kv.ServeGraph(triLibGraph(), 2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "storage nodes:", err)
		os.Exit(1)
	}
	fmt.Println(strings.Join(addrs, ","))
	io.Copy(io.Discard, os.Stdin)
}

// triLibGraph is the benchmark's tri-lib-* graph before relabelling.
func triLibGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 14000, EdgesPer: 3, Triad: 0.1, Seed: 7})
}

// BenchmarkWindowFrontier is one 64-task triangle window of the
// tri-lib-compact workload end to end — prefetch, then its tasks — over
// two storage nodes in a child process, the cache a quarter of the graph
// and cycling through the queue as a run does. per-task is the window as
// PR 16 left it: the start batch, then every task's own ENU batch.
// frontier is the start batch and the frontier batch, after which the
// tasks' ENU batches find their keys resident. trips/window is the
// store's share of the difference.
func BenchmarkWindowFrontier(b *testing.B) {
	g := triLibGraph()
	nodes := osexec.Command(os.Args[0], "-test.run=^$")
	nodes.Env = append(os.Environ(), nodesProcEnv+"=1")
	nodes.Stderr = os.Stderr
	stdin, err := nodes.StdinPipe()
	if err != nil {
		b.Fatal(err)
	}
	stdout, err := nodes.StdoutPipe()
	if err != nil {
		b.Fatal(err)
	}
	if err := nodes.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		stdin.Close()
		nodes.Wait()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		b.Fatalf("storage-node process did not report its addresses: %v", err)
	}
	client, err := kv.Dial(strings.Split(strings.TrimSpace(line), ","), g.NumVertices())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	prog := compileBest(b, gen.Triangle(), g, plan.OptimizedUncompressed)
	ord := graph.NewTotalOrder(g)
	windows := g.NumVertices() / defaultBatchSize

	for _, frontier := range []bool{false, true} {
		name := "per-task"
		if frontier {
			name = "frontier"
		}
		b.Run(name, func(b *testing.B) {
			src := NewCachedSourceWith(client, g.SizeBytes()/4, SourceOptions{Compact: true, Prefetch: true})
			e := NewExecutor(prog, src, g.NumVertices(), ord, Options{})
			var walker *Executor
			if frontier {
				walker = e
			}
			base := 0
			task := func(i int) Task { return Task{Start: int64(base + i)} }
			for i := 0; i < b.N; i++ {
				base = i % windows * defaultBatchSize
				src.PrefetchWindow(walker, defaultBatchSize, task)
				for j := 0; j < defaultBatchSize; j++ {
					if _, err := e.Run(task(j)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(src.RemoteTrips())/float64(b.N), "trips/window")
		})
	}
}
