package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"benu/internal/cluster/sched"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/obs"
)

// TestPrefetchFlag: the batched data plane is the deployed default and
// -prefetch=false turns it off.
func TestPrefetchFlag(t *testing.T) {
	if !parseFlags(nil).prefetch {
		t.Error("benu-master without -prefetch runs the data plane unbatched; the default is on")
	}
	if parseFlags([]string{"-prefetch=false"}).prefetch {
		t.Error("-prefetch=false left prefetch on")
	}
}

// TestFlagSet pins benu-master's flags, names and defaults, to the set
// the binary had before its shared flags moved to package cli: a flag
// that appears or vanishes, or a default that drifts (-preset is as here
// and ok in benu, -prefetch on here and off there), fails.
func TestFlagSet(t *testing.T) {
	want := map[string]string{
		"pattern": "triangle", "graph": "", "preset": "as", "tau": "500",
		"uncompressed": "false", "degree-filter": "false", "retry": "2",
		"prefetch": "true", "metrics": "false", "v": "false",
		"listen": "127.0.0.1:7077", "journal": "", "store-partitions": "2",
		"store-listen": "", "lease": "3s",
	}
	got := map[string]string{}
	newFlagSet(new(runConfig)).VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags and defaults:\n got %v\nwant %v", got, want)
	}
	if rc := parseFlags(nil); rc.preset != "as" || !rc.prefetch || rc.retry != 2 || rc.tau != 500 {
		t.Errorf("parsed defaults: preset=%q prefetch=%v retry=%d tau=%d", rc.preset, rc.prefetch, rc.retry, rc.tau)
	}
}

// TestMasterEndToEnd runs the binary's own start path — graph from an
// edge-list file, plan generation, kv storage nodes, task queue — and
// joins two workers that dial everything over loopback TCP, exactly as
// benu-worker would; once as the flags default and once with
// -prefetch=false. Same count both ways; the default makes under half as
// many store trips as tasks, the unbatched plane more trips than tasks.
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

	for _, args := range [][]string{nil, {"-prefetch=false"}} {
		rc := parseFlags(append([]string{"-pattern", "q4", "-graph", path, "-listen", "127.0.0.1:0"}, args...))
		d, err := start(rc)
		if err != nil {
			t.Fatal(err)
		}
		wreg := obs.NewRegistry() // the workers' machines, summed
		var workers []*sched.Worker
		for i := 0; i < 2; i++ {
			// 32 MiB is benu-worker's -cache-mb default.
			w, err := sched.StartWorker(d.master.Addr(), sched.WorkerConfig{Threads: 2, CacheBytes: 32 << 20, Obs: wreg})
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
				t.Errorf("%v: worker %d exit: %v", args, w.ID(), err)
			}
		}
		d.close()
		if res.Matches != want {
			t.Errorf("%v: matches = %d, want %d", args, res.Matches, want)
		}
		if res.Stats.DBQueries == 0 {
			t.Errorf("%v: no DB queries recorded: workers did not dial the storage nodes", args)
		}
		trips, tasks := wreg.Counter("cluster.db.trips").Value(), int64(res.Tasks)
		if rc.prefetch && (trips == 0 || 2*trips >= tasks) {
			t.Errorf("default: %d store trips for %d tasks, want 0 < trips < tasks/2", trips, tasks)
		}
		if !rc.prefetch && trips <= tasks {
			t.Errorf("-prefetch=false: %d store trips for %d tasks, want one per start vertex and more", trips, tasks)
		}
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
//
// Other packages' tests share the machine's ports, so one of them may
// take the requested port between two starts. On "address already in
// use" the test probes the port: still held, the holder is outside this
// process and the iteration is redone on a fresh port (a few times at
// most); free again, it was one of start's own stores, released when
// start failed, and the test fails.
func TestStartBindsControlPlaneBeforeStores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	port, release := steeredPort(t)
	defer func() { release() }()
	const maxMoves = 3
	moves := 0
	for i := 0; i < 100; i++ {
		d, err := start(runConfig{
			pattern:    "triangle",
			graphPath:  path,
			listen:     fmt.Sprintf("127.0.0.1:%d", port),
			partitions: 2,
			lease:      3 * time.Second,
		})
		if errors.Is(err, syscall.EADDRINUSE) && moves < maxMoves && !portFree(port) {
			moves++
			t.Logf("start %d: 127.0.0.1:%d is held outside this test; moving to a fresh port", i, port)
			release()
			port, release = steeredPort(t)
			i--
			continue
		}
		if err != nil {
			t.Fatalf("start %d on 127.0.0.1:%d: %v", i, port, err)
		}
		d.close()
	}
}

// steeredPort returns a just-released ephemeral port with the 800 ports
// below it held, and the function that releases them.
func steeredPort(t *testing.T) (int, func()) {
	t.Helper()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := probe.Addr().(*net.TCPAddr).Port
	probe.Close() // just released: squarely inside the ephemeral range
	var held []net.Listener
	for k := 1; k <= 800; k++ {
		if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port-k)); err == nil {
			held = append(held, ln)
		}
	}
	return port, func() {
		for _, ln := range held {
			ln.Close()
		}
	}
}

// portFree reports whether 127.0.0.1:port can be bound right now.
func portFree(port int) bool {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return false
	}
	ln.Close()
	return true
}
