package kv

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
)

// BenchmarkTCPTrip is the store round trip over one loopback node:
// Client.GetAdjBatch → frame → socket → Server.serveConn → MapStore and
// back. b1 is what every DB cache demand miss pays, b64 a full prefetch
// batch, and b64-parallel the same batch from GOMAXPROCS goroutines at
// once, each on its own pooled connection (the pool's and the node's
// scaling: ns/op is wall per batch across all goroutines).
func BenchmarkTCPTrip(b *testing.B) {
	g := benchGraph()
	srv, err := Serve("127.0.0.1:0", NewMapStore(Shard(g, 0, 1), g.NumVertices()))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial([]string{srv.Addr()}, g.NumVertices())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	keys := make([]int64, 1<<12)
	for i := range keys {
		keys[i] = int64(i * 37 % g.NumVertices())
	}
	trip := func(i, batch int) error {
		at := i * batch & (len(keys) - 1)
		_, err := client.GetAdjBatch(keys[at : at+batch])
		return err
	}

	b.Run("b1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := trip(i, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("b64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := trip(i, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("b64-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if err := trip(i, 64); err != nil {
					b.Error(err) // not Fatal: this is not the benchmark's goroutine
					return
				}
			}
		})
	})
}

// nodesProcEnv marks a re-exec of the test binary as the storage tier of
// BenchmarkTCPBatchTwoPartitions.
const nodesProcEnv = "BENU_KV_BENCH_NODES"

// TestMain turns a re-exec'd test binary into two storage nodes: it
// prints their addresses and serves until stdin closes.
func TestMain(m *testing.M) {
	if os.Getenv(nodesProcEnv) == "" {
		os.Exit(m.Run())
	}
	_, addrs, err := ServeGraph(benchGraph(), 2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "storage nodes:", err)
		os.Exit(1)
	}
	fmt.Println(strings.Join(addrs, ","))
	io.Copy(io.Discard, os.Stdin)
}

func benchGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 4000, EdgesPer: 3, Triad: 0.1, Seed: 7})
}

// BenchmarkTCPBatchTwoPartitions is one batch over two loopback nodes,
// the shape of every window and ENU-stage prefetch on a partitioned
// store. gather is Client.GetAdjBatch: both requests written, then both
// replies read. sequential is the shape it replaced — partition 0's round
// trip, then partition 1's — rebuilt from the same grouping and the same
// call the gather falls back to, so the pair isolates the overlap.
//
// The nodes run in a process of their own, as deployed. Inside the
// client's process they would share its Go scheduler, and the pair would
// time that instead: a node goroutine made runnable while the client is
// still writing is picked up by waking another thread, which on a
// two-core host costs more than the overlap saves (in-process, gather
// measured 0.9× sequential's time at GOMAXPROCS 1, 1.2–1.6× at 2 and 2× at 4).
func BenchmarkTCPBatchTwoPartitions(b *testing.B) {
	g := benchGraph()
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
	client, err := Dial(strings.Split(strings.TrimSpace(line), ","), g.NumVertices())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	keys := make([]int64, 1<<12)
	for i := range keys {
		keys[i] = int64(i * 37 % g.NumVertices())
	}
	sc := newRouteScratch(2)
	sequential := func(vs []int64) error {
		out := make([]graph.AdjList, len(vs))
		sc.reset()
		if err := sc.group(g.NumVertices(), vs); err != nil {
			return err
		}
		for p, part := range sc.keys {
			if err := client.callPart(p, part, sc.idxs[p], out); err != nil {
				return err
			}
		}
		return nil
	}
	gather := func(vs []int64) error {
		_, err := client.GetAdjBatch(vs)
		return err
	}
	for _, batch := range []int{8, 64} {
		for _, shape := range []struct {
			name string
			get  func(vs []int64) error
		}{{"sequential", sequential}, {"gather", gather}} {
			b.Run(fmt.Sprintf("b%d-%s", batch, shape.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					at := i * batch & (len(keys) - 1)
					if err := shape.get(keys[at : at+batch]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
