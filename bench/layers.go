//go:build unix

package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"benu/internal/cache"
	"benu/internal/cluster"
	"benu/internal/cluster/sched"
	"benu/internal/cluster/sched/journal"
	"benu/internal/csr"
	"benu/internal/exec"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
)

// The layers pass: each package's public functions timed from outside,
// one goroutine unless the metric's name ends in _tn (n = nproc), on
// the workload's own graph. Every probe gets one time slice.

// perOp calls f with growing n until one call lasts at least slice, and
// returns that call's nanoseconds per operation.
func perOp(slice time.Duration, f func(n int)) float64 {
	for n := 1; ; {
		t0 := time.Now()
		f(n)
		d := time.Since(t0)
		if d >= slice || n >= 1<<28 {
			return float64(d.Nanoseconds()) / float64(n)
		}
		if d < slice/64 {
			n *= 16
		} else {
			n = int(1.2*float64(n)*float64(slice)/float64(d)) + 1
		}
	}
}

// microStats sorts ds in place and returns its mean, median and 99th
// percentile in microseconds.
func microStats(ds []time.Duration) (mean, p50, p99 float64) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return us(sum) / float64(len(ds)), us(ds[len(ds)/2]), us(ds[len(ds)*99/100])
}

// layers is the metric sink of the pass.
type layers map[string]metric

func (l layers) set(name string, v float64, unit string) { l[name] = metric{Value: v, Unit: unit} }

// graphLayer times the adjacency codec and the two intersection kernels.
func (l layers) graphLayer(g *graph.Graph, slice time.Duration) {
	n := g.NumVertices()
	entries := float64(2 * g.NumEdges())
	l.set("graph.encode_ns_per_edge", perOp(slice, func(k int) {
		for ; k > 0; k-- {
			for v := 0; v < n; v++ {
				graph.EncodeAdjList(g.Adj(int64(v)))
			}
		}
	})/entries, "ns")
	ca := graph.NewCompactAdjacency(g)
	buf := make([]int64, 0, g.MaxDegree())
	l.set("graph.decode_ns_per_edge", perOp(slice, func(k int) {
		for ; k > 0; k-- {
			for v := 0; v < n; v++ {
				buf, _ = ca.List(int64(v)).AppendDecoded(buf[:0])
			}
		}
	})/entries, "ns")
	l.set("graph.bytes_per_edge", float64(ca.SizeBytes())/entries, "B")

	// Intersect the two endpoint lists of every edge: the triangle
	// kernel. An element is one entry of either input list.
	edges := g.EdgeList()
	var elems float64
	for _, e := range edges {
		elems += float64(g.Degree(e[0]) + g.Degree(e[1]))
	}
	l.set("graph.intersect_raw_ns_per_elem", perOp(slice, func(k int) {
		for ; k > 0; k-- {
			for _, e := range edges {
				buf = graph.IntersectSorted(buf[:0], g.Adj(e[0]), g.Adj(e[1]))
			}
		}
	})/elems, "ns")
	l.set("graph.intersect_enc_ns_per_elem", perOp(slice, func(k int) {
		for ; k > 0; k-- {
			for _, e := range edges {
				buf, _ = graph.IntersectAdjLists(buf[:0], ca.List(e[0]), ca.List(e[1]))
			}
		}
	})/elems, "ns")
}

// randomKeys draws the probe key sequence (fixed seed: the probes
// compare code, not inputs).
func randomKeys(n, count int) []int64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, count)
	for i := range keys {
		keys[i] = int64(rng.Intn(n))
	}
	return keys
}

// cacheLayer times cache.LRU: the hit path alone and under nproc
// goroutines (the ratio is contention on its one mutex), and a Put that
// evicts.
func (l layers) cacheLayer(g *graph.Graph, slice time.Duration) {
	n := g.NumVertices()
	full := cache.NewLRU(1 << 40)
	for v := 0; v < n; v++ {
		full.Put(int64(v), g.Adj(int64(v)))
	}
	keys := randomKeys(n, 1<<16)
	hits := func(k int) {
		for i := 0; i < k; i++ {
			full.Get(keys[i&(len(keys)-1)])
		}
	}
	l.set("cache.get_hit_ns_t1", perOp(slice, hits), "ns")
	// Each of nproc goroutines makes k Gets; the per-operation latency a
	// thread sees is the wall over k.
	l.set("cache.get_hit_ns_tn", perOp(slice, func(k int) {
		var wg sync.WaitGroup
		for t := 0; t < runtime.NumCPU(); t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hits(k)
			}()
		}
		wg.Wait()
	}), "ns")
	small := cache.NewLRU(g.SizeBytes() / 4)
	l.set("cache.put_evict_ns", perOp(slice, func(k int) {
		for i := 0; i < k; i++ {
			v := int64(i % n)
			small.Put(v, g.Adj(v))
		}
	}), "ns")
}

// getOne times single-key reads through the storage SPI.
func getOne(s kv.Store, keys []int64, slice time.Duration) float64 {
	one := make([]int64, 1)
	return perOp(slice, func(k int) {
		for i := 0; i < k; i++ {
			one[0] = keys[i&(len(keys)-1)]
			s.GetAdjBatch(one)
		}
	})
}

// kvLayer times every store backend in-process and the TCP client over
// loopback at batch sizes 1 and 64.
func (l layers) kvLayer(g *graph.Graph, dir string, slice time.Duration) error {
	n := g.NumVertices()
	keys := randomKeys(n, 1<<16)
	l.set("kv.local_get_ns", getOne(kv.NewLocal(g), keys, slice), "ns")
	l.set("kv.map_get_ns", getOne(kv.NewMapStore(kv.Shard(g, 0, 1), n), keys, slice), "ns")

	path := filepath.Join(dir, "layers.csr")
	t0 := time.Now()
	if err := csr.WriteGraphFile(path, g, 1, 0); err != nil {
		return err
	}
	l.set("csr.write_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	disk, err := kv.OpenDisk(path, obs.NewRegistry())
	if err != nil {
		return err
	}
	l.set("csr.open_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	l.set("kv.disk_get_ns", getOne(disk, keys, slice), "ns")
	disk.Close()

	// Two replicas of each of the two partitions, every one its own TCP
	// server; the plain client uses replica 0 of each.
	var servers []*kv.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	replicas := make([][]kv.Store, storePartitions)
	var addrs []string
	for p := range replicas {
		for r := 0; r < 2; r++ {
			srv, err := kv.Serve("127.0.0.1:0", kv.NewMapStore(kv.Shard(g, p, storePartitions), n))
			if err != nil {
				return err
			}
			servers = append(servers, srv)
			c, err := kv.Dial([]string{srv.Addr()}, n)
			if err != nil {
				return err
			}
			defer c.Close()
			replicas[p] = append(replicas[p], c)
			if r == 0 {
				addrs = append(addrs, srv.Addr())
			}
		}
	}
	client, err := kv.Dial(addrs, n)
	if err != nil {
		return err
	}
	defer client.Close()

	// Batch of one: every trip timed, for the tail.
	one := make([]int64, 1)
	var trips []time.Duration
	for begin := time.Now(); time.Since(begin) < slice; {
		one[0] = keys[len(trips)&(len(keys)-1)]
		t0 := time.Now()
		if _, err := client.GetAdjBatch(one); err != nil {
			return err
		}
		trips = append(trips, time.Since(t0))
	}
	mean, _, p99 := microStats(trips)
	l.set("kv.tcp_trip_us_b1", mean, "us")
	l.set("kv.tcp_trip_p99_us_b1", p99, "us")
	m := client.Metrics()
	l.set("kv.wire_bytes_per_key", float64(m.Bytes())/float64(m.Queries()), "B")

	// batch fetches the i-th run of 64 probe keys.
	batch := func(i int) error {
		off := i % (len(keys) / 64) * 64
		_, err := client.GetAdjBatch(keys[off : off+64])
		return err
	}
	var berr error
	l.set("kv.tcp_trip_us_b64", perOp(slice, func(k int) {
		for i := 0; i < k; i++ {
			if err := batch(i); err != nil {
				berr = err
			}
		}
	})/1e3, "us")
	// nproc goroutines, each its own batches of 64: keys per second over
	// all of them.
	perBatch := perOp(slice, func(k int) {
		var wg sync.WaitGroup
		for t := 0; t < runtime.NumCPU(); t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				for i := 0; i < k; i++ {
					batch(i + t*977)
				}
			}(t)
		}
		wg.Wait()
	})
	l.set("kv.tcp_keys_per_s_tn", float64(64*runtime.NumCPU())/(perBatch/1e9), "1/s")
	if berr != nil {
		return berr
	}
	rep, err := kv.NewReplicated(replicas, n, kv.ReplicatedOptions{Obs: obs.NewRegistry()})
	if err != nil {
		return err
	}
	l.set("kv.replicated_trip_us_b1", getOne(rep, keys, slice)/1e3, "us")
	return nil
}

// nullTasks is the size of the edgeless graph the runtime probes run:
// every task is one empty adjacency read, so the wall is pure per-task
// runtime cost.
const nullTasks = 1000

// nullLayer prices a task that does nothing, through cluster.Run and
// through the control plane with the journal off, on without fsync, and
// on with fsync. The differences price the Report RPC, the journal
// encode, and the fsync.
func (l layers) nullLayer(in *input) error {
	empty := graph.FromEdges(nullTasks, nil)
	ord := graph.NewTotalOrder(empty)
	store := kv.NewLocal(empty)

	cfg := cluster.Defaults(empty)
	cfg.Workers, cfg.ThreadsPerWorker, cfg.Obs = 1, runtime.NumCPU(), obs.NewRegistry()
	res, err := cluster.Run(in.plan, store, ord, empty.Degree, cfg)
	if err != nil {
		return err
	}
	l.set("cluster.null_task_us", float64(res.Wall.Nanoseconds())/1e3/float64(res.Tasks), "us")

	for _, v := range []struct {
		metric  string
		journal string
		noSync  bool
	}{
		{"sched.null_task_us", "", false},
		{"sched.null_task_nosync_us", "null-nosync.journal", true},
		{"sched.null_task_fsync_us", "null-fsync.journal", false},
	} {
		mc := sched.MasterConfig{Plan: in.plan, NumVertices: nullTasks, Ord: ord, Degree: empty.Degree,
			Tau: 500, JournalNoSync: v.noSync, Obs: obs.NewRegistry()}
		if v.journal != "" {
			mc.JournalPath = filepath.Join(in.dir, v.journal)
		}
		t0 := time.Now()
		m, err := sched.StartMaster("127.0.0.1:0", mc)
		if err != nil {
			return err
		}
		wk, err := sched.StartWorker(m.Addr(), sched.WorkerConfig{Threads: runtime.NumCPU(), Store: store, Obs: obs.NewRegistry()})
		if err != nil {
			m.Close()
			return err
		}
		r, err := m.Wait(context.Background())
		wall := time.Since(t0)
		m.Drain(2 * time.Second)
		wk.Wait()
		m.Close()
		if err != nil {
			return err
		}
		l.set(v.metric, float64(wall.Nanoseconds())/1e3/float64(r.Tasks), "us")
	}
	return nil
}

// journalLayer times the write-ahead log alone: appends with and without
// fsync (the fsync is this machine's disk, whatever the checkout sits
// on), record size, and replay.
func (l layers) journalLayer(dir string, slice time.Duration) error {
	spec := &journal.JobSpec{Plan: []byte("{}"), NumVertices: 1, Tasks: 1}
	completion := func(i int) *journal.Completion {
		return &journal.Completion{TaskID: int64(i), DurationNs: 12345,
			Stats: exec.Stats{Matches: 3, DBQueries: 4, IntOps: 3, EnuSteps: 7, ResultSize: 72}}
	}
	open := func(name string, noSync bool) (*journal.Log, error) {
		lg, _, err := journal.Open(filepath.Join(dir, name), journal.Options{NoSync: noSync})
		if err != nil {
			return nil, err
		}
		if _, err := lg.AppendSpec(spec); err != nil {
			return nil, err
		}
		return lg, nil
	}

	lg, err := open("probe-fsync.journal", false)
	if err != nil {
		return err
	}
	var syncs []time.Duration
	for begin := time.Now(); time.Since(begin) < 2*slice; {
		t0 := time.Now()
		if _, err := lg.AppendCompletion(completion(len(syncs))); err != nil {
			return err
		}
		syncs = append(syncs, time.Since(t0))
	}
	lg.Close()
	mean, _, p99 := microStats(syncs)
	l.set("journal.append_fsync_us", mean, "us")
	l.set("journal.append_fsync_p99_us", p99, "us")

	// 100 000 completions without fsync: the append cost, the record
	// size, and the file the replay probe opens.
	const replayed = 100000
	if lg, err = open("probe-replay.journal", true); err != nil {
		return err
	}
	var bytes int
	t0 := time.Now()
	for i := 0; i < replayed; i++ {
		n, err := lg.AppendCompletion(completion(i))
		if err != nil {
			return err
		}
		bytes += n
	}
	l.set("journal.append_nosync_us", float64(time.Since(t0).Nanoseconds())/1e3/replayed, "us")
	l.set("journal.bytes_per_task", float64(bytes)/replayed, "B")
	lg.Close()
	t0 = time.Now()
	lg, rep, err := journal.Open(filepath.Join(dir, "probe-replay.journal"), journal.Options{NoSync: true})
	if err != nil {
		return err
	}
	l.set("journal.replay_ms_per_100k", float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	lg.Close()
	if len(rep.Completions) != replayed {
		return fmt.Errorf("journal replay returned %d completions, wrote %d", len(rep.Completions), replayed)
	}
	return nil
}
