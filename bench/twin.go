//go:build unix

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"benu"
	"benu/internal/cluster/sched"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
)

// The twin is a workload's topology run inside the bench process — the
// same master, workers, store servers and TCP sockets, minus process
// start-up — so the bench can put its own decorator around the store
// and read the registries. Spans come from the bench's side of each
// package boundary only; spans inside the program are ROADMAP item 4.

// span is one traced interval. parent is the id of the span that
// caused it (0 for the job span itself).
type span struct {
	name       string
	id, parent int
	start, end time.Duration // since the tracer's origin
	keys       int           // store trips: keys requested
	bytes      int64         // store trips: payload returned
}

// tracer keeps the spans of one job in memory until the run ends.
type tracer struct {
	job    string
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(job string) *tracer { return &tracer{job: job, origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time, keys int, bytes int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent,
		start: start.Sub(t.origin), end: end.Sub(t.origin), keys: keys, bytes: bytes})
	return id
}

// open starts a span that will contain others; close ends it.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now, 0, 0)
}

func (t *tracer) close(id int) {
	t.mu.Lock()
	t.spans[id-1].end = time.Since(t.origin)
	t.mu.Unlock()
}

// tracedStore is the bench's kv.Store decorator: one span per round
// trip, recorded on the calling worker thread.
type tracedStore struct {
	inner  kv.Store
	tr     *tracer
	parent int
}

func (s *tracedStore) NumVertices() int { return s.inner.NumVertices() }

func (s *tracedStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	t0 := time.Now()
	lists, err := s.inner.GetAdjBatch(vs)
	t1 := time.Now()
	var bytes int64
	for _, l := range lists {
		bytes += l.SizeBytes()
	}
	s.tr.add("kv.GetAdjBatch", s.parent, t0, t1, len(vs), bytes)
	return lists, err
}

// storeTrips returns the durations of the recorded store round trips.
func (t *tracer) storeTrips() []time.Duration {
	var trips []time.Duration
	for _, s := range t.spans {
		if s.name == "kv.GetAdjBatch" {
			trips = append(trips, s.end-s.start)
		}
	}
	return trips
}

// maxTraceEvents caps the trace file: a library run makes ~10⁵ store
// trips, and a viewer needs the shape, not every one of them.
const maxTraceEvents = 50000

// write renders the spans as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev). Concurrent store trips are spread over lanes.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // µs
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans := t.spans
	if len(spans) > maxTraceEvents {
		spans = spans[:maxTraceEvents]
	}
	var laneEnd []time.Duration // lane i+1 is busy until laneEnd[i]
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		ev := event{Name: s.name, Ph: "X", Pid: 1,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "job": t.job}}
		if s.name == "kv.GetAdjBatch" {
			lane := 0
			for lane < len(laneEnd) && laneEnd[lane] > s.start {
				lane++
			}
			if lane == len(laneEnd) {
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[lane] = s.end
			ev.Tid = lane + 1
			ev.Args["keys"], ev.Args["bytes"] = s.keys, s.bytes
		}
		events = append(events, ev)
	}
	data, err := json.Marshal(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
		"otherData":       map[string]any{"job": t.job, "spans_recorded": len(t.spans), "spans_written": len(events)},
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// twinResult is one in-process run.
type twinResult struct {
	err     error
	wallS   float64
	matches int64
	threads int // worker threads in total
	// Store wire traffic, off the kv.Client counters.
	commBytes, trips, keys int64
	// taskS is Σ cluster.task.duration_ns over all threads; busiest is
	// the largest per-machine share of it.
	taskS, busiestS float64
	// snap is the master's registry plus the workers', flattened.
	snap map[string]float64
}

// twin runs w's topology in-process. With a tracer every worker's store
// is wrapped in the bench's decorator and the phases are recorded.
func (e *env) twin(w workload, in *input, tr *tracer) twinResult {
	r := twinResult{threads: w.workers * w.threads}
	job := 0
	if tr != nil {
		job = tr.open("job "+w.name, 0)
		defer tr.close(job)
	}
	servers, addrs, err := kv.ServeGraph(in.g, storePartitions)
	if err != nil {
		r.err = err
		return r
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	n := in.g.NumVertices()
	clients := make([]*kv.Client, w.workers)
	stores := make([]kv.Store, w.workers)
	for i := range clients {
		if clients[i], err = kv.Dial(addrs, n); err != nil {
			r.err = err
			return r
		}
		defer clients[i].Close()
		stores[i] = clients[i]
	}
	run := 0
	if tr != nil {
		run = tr.open("run", job)
		for i := range stores {
			stores[i] = &tracedStore{inner: clients[i], tr: tr, parent: run}
		}
	}
	regs := make([]*obs.Registry, w.workers)
	for i := range regs {
		regs[i] = obs.NewRegistry()
	}
	t0 := time.Now()
	if w.deploy {
		r.matches, r.snap, r.err = e.twinDeploy(w, in, addrs, stores, regs)
	} else {
		res, err := benu.RunOnStore(in.plan, stores[0], in.ord, in.g.Degree, libConfig(w, in.g, regs[0]))
		if err == nil {
			r.matches = res.Matches
		}
		r.snap, r.err = map[string]float64{}, err
	}
	r.wallS = time.Since(t0).Seconds()
	if tr != nil {
		tr.close(run)
	}
	if r.err != nil {
		return r
	}
	if r.matches != in.floor.Matches {
		r.err = fmt.Errorf("%s twin counted %d matches, reference %d", w.name, r.matches, in.floor.Matches)
		return r
	}
	for i, c := range clients {
		r.commBytes += c.Metrics().Bytes()
		r.trips += c.Metrics().Trips()
		r.keys += c.Metrics().Queries()
		ws := flatten(regs[i].Snapshot())
		busy := ws["cluster.task.duration_ns.sum"] / 1e9
		r.taskS += busy
		if busy > r.busiestS {
			r.busiestS = busy
		}
		mergeSnapshot(r.snap, ws)
	}
	return r
}

// twinDeploy is benu-master's start() and benu-worker's run() with the
// CLI defaults, against store nodes and stores the caller supplies.
func (e *env) twinDeploy(w workload, in *input, addrs []string, stores []kv.Store, regs []*obs.Registry) (int64, map[string]float64, error) {
	in.twins++
	mreg := obs.NewRegistry()
	m, err := sched.StartMaster("127.0.0.1:0", sched.MasterConfig{
		Plan:          in.plan,
		NumVertices:   in.g.NumVertices(),
		Ord:           in.ord,
		Degree:        in.g.Degree,
		LabelOf:       in.g.Label,
		Tau:           500,
		TaskRetries:   2,
		LeaseDuration: 3 * time.Second,
		StoreAddrs:    addrs,
		JournalPath:   filepath.Join(in.dir, fmt.Sprintf("twin-%d.journal", in.twins)),
		Obs:           mreg,
	})
	if err != nil {
		return 0, nil, err
	}
	defer m.Close()
	workers := make([]*sched.Worker, 0, len(stores))
	for i, st := range stores {
		wk, err := sched.StartWorker(m.Addr(), sched.WorkerConfig{
			Threads: w.threads, CacheBytes: int64(w.cacheMB) << 20, Store: st, Obs: regs[i]})
		if err != nil {
			return 0, nil, err
		}
		workers = append(workers, wk)
	}
	res, err := m.Wait(context.Background())
	if err != nil {
		return 0, nil, err
	}
	m.Drain(2 * time.Second)
	for _, wk := range workers {
		if err := wk.Wait(); err != nil {
			return 0, nil, fmt.Errorf("twin worker: %w", err)
		}
	}
	snap := flatten(mreg.Snapshot())
	snap["exec.dbq"] = float64(res.Stats.DBQueries)
	return res.Matches, snap, nil
}

// flatten renders a registry snapshot in the shape parseSnapshot gives
// the CLIs' text output.
func flatten(s *obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s.Counters {
		out[k] = float64(v)
	}
	for k, v := range s.Gauges {
		out[k] = v
	}
	for k, h := range s.Histograms {
		out[k+".count"] = float64(h.Count)
		out[k+".sum"] = float64(h.Sum)
		out[k+".mean"] = h.Mean
		out[k+".p50"] = float64(h.P50)
		out[k+".p99"] = float64(h.P99)
	}
	return out
}
