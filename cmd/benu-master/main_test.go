package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"benu/internal/cluster/sched"
	"benu/internal/gen"
	"benu/internal/graph"
)

// TestMasterEndToEnd runs the binary's own start path — graph from an
// edge-list file, plan generation, kv storage nodes, task queue — and
// joins two workers that dial everything over loopback TCP, exactly as
// benu-worker would.
func TestMasterEndToEnd(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 200, EdgesPer: 3, Triad: 0.4, Seed: 11})
	path := filepath.Join(t.TempDir(), "edges.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.EdgeList() {
		fmt.Fprintf(f, "%d %d\n", e[0], e[1])
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := graph.RefCount(gen.Q(4), g, graph.NewTotalOrder(g))

	d, err := start(runConfig{
		pattern:    "q4",
		graphPath:  path,
		listen:     "127.0.0.1:0",
		partitions: 2,
		tau:        500,
		retry:      2,
		lease:      3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()

	var workers []*sched.Worker
	for i := 0; i < 2; i++ {
		w, err := sched.StartWorker(d.master.Addr(), sched.WorkerConfig{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	res, err := d.master.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if err := w.Wait(); err != nil {
			t.Errorf("worker %d exit: %v", w.ID(), err)
		}
	}
	if res.Matches != want {
		t.Errorf("matches = %d, want %d", res.Matches, want)
	}
	if res.Stats.DBQueries == 0 {
		t.Error("no DB queries recorded: workers did not dial the storage nodes")
	}
}

// TestStartBindsControlPlaneBeforeStores pins the bind order in start:
// the -listen address is claimed before the storage nodes open their
// ":0" listeners. With the order reversed, the kernel may hand a store
// partition the very port -listen names (any port in the ephemeral range
// qualifies) and the master dies on "address already in use".
//
// To make that collision likely instead of a 1-in-2500 event, the test
// holds the ports just below the requested one busy: Linux scans upward
// from a random start for a free ephemeral port, so every start landing
// in the busy run is steered onto the requested port (~6 % of ":0"
// listens with 800 neighbours held; 100 starts × 2 partitions would miss
// the reversed order about once in 10^5 runs).
func TestStartBindsControlPlaneBeforeStores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := probe.Addr().(*net.TCPAddr).Port
	probe.Close() // just released: squarely inside the ephemeral range
	for k := 1; k <= 800; k++ {
		if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port-k)); err == nil {
			defer ln.Close()
		}
	}
	for i := 0; i < 100; i++ {
		d, err := start(runConfig{
			pattern:    "triangle",
			graphPath:  path,
			listen:     fmt.Sprintf("127.0.0.1:%d", port),
			partitions: 2,
			lease:      3 * time.Second,
		})
		if err != nil {
			t.Fatalf("start %d on 127.0.0.1:%d: %v", i, port, err)
		}
		d.close()
	}
}
