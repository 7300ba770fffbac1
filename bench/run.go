//go:build unix

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"benu/internal/exec"
	"benu/internal/kv"
)

// runWorkload is one -workload run: set up, then measure for about
// seconds — the end-to-end pass (trace 0) or the per-layer pass (1).
func (e *env) runWorkload(w workload, scale string, seed int64, seconds, trace int) (*runResult, error) {
	in, err := prepare(w, seed, e.tmp)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(in.dir)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	if trace == 0 {
		return e.endToEnd(w, scale, in, deadline), nil
	}
	return e.perLayer(w, scale, in, deadline)
}

// runJob runs one repetition and checks its match count against the
// floor enumeration's.
func (e *env) runJob(w workload, scale string, in *input, rep int, metrics bool) jobResult {
	var r jobResult
	if w.deploy {
		r = e.runDeploy(w, in, rep, metrics)
	} else {
		r = e.runLib(w, scale, in.graphFile)
	}
	if r.err == nil && r.matches != in.floor.Matches {
		r.err = fmt.Errorf("%s: repetition %d counted %d matches, reference %d", w.name, rep, r.matches, in.floor.Matches)
	}
	if r.err != nil {
		fmt.Fprintln(os.Stderr, "bench:", r.err)
	}
	return r
}

// tally accumulates the failure accounting of a run's repetitions.
type tally struct {
	attempted, failed int
	correct           bool
}

// add counts one repetition: a failed one counts every task as failed
// (the reference task count stands in when the job never reported one).
func (t *tally) add(r jobResult, refTasks int) {
	tasks := r.tasks
	if tasks == 0 {
		tasks = refTasks
	}
	t.attempted += tasks
	if r.err != nil {
		t.failed += tasks
		t.correct = false
		return
	}
	t.failed += min(r.failedOps, tasks)
}

// endToEnd repeats the job until the deadline and reports medians. The
// repetition count is whatever fits: three at least, so a median exists
// (one at the smoke scale, which checks the plumbing, not the numbers).
func (e *env) endToEnd(w workload, scale string, in *input, deadline time.Time) *runResult {
	t := tally{correct: true}
	samples := map[string][]float64{}
	var commMB float64
	if w.deploy {
		// The shipped binaries print no wire counter: read the payload
		// bytes off the same topology run in-process, untraced.
		tw := e.twin(w, in, nil)
		if tw.err != nil {
			fmt.Fprintln(os.Stderr, "bench: twin:", tw.err)
			t.correct = false
		}
		commMB = float64(tw.commBytes) / 1e6
	}
	minReps := 3
	if scale == "smoke" {
		minReps = 1
	}
	var longest time.Duration
	for rep := 0; rep < minReps || time.Now().Add(longest).Before(deadline); rep++ {
		r := e.runJob(w, scale, in, rep, false)
		if d := time.Duration(r.elapsedS * float64(time.Second)); d > longest {
			longest = d
		}
		t.add(r, in.g.NumVertices())
		if r.err != nil {
			continue
		}
		if !w.deploy {
			commMB = r.commMB
		}
		samples["wall_s"] = append(samples["wall_s"], r.wallS)
		samples["cpu_s"] = append(samples["cpu_s"], r.cpuS)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], r.rssMB)
		samples["comm_mb"] = append(samples["comm_mb"], commMB)
	}
	samples["setup_s"] = in.setupS

	res := &runResult{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	units := map[string]string{"wall_s": "s", "cpu_s": "s", "comm_mb": "MB", "peak_rss_mb": "MB", "setup_s": "s"}
	for name, unit := range units {
		res.Metrics[name] = metric{Value: median(samples[name]), Unit: unit, Samples: samples[name]}
	}
	return res
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perLayer is the -trace 1 pass: the layers probes, one real repetition
// with the processes' own -metrics on, and the in-process twin run
// alternately untraced and traced until the deadline. It reports every
// per-layer metric of BENCHMARK.json; one that does not exist on this
// workload's path (sched.* on the library path, prefetch coverage
// without prefetch) reads 0.
func (e *env) perLayer(w workload, scale string, in *input, deadline time.Time) (*runResult, error) {
	l := layers{}
	slice := time.Until(deadline) / 200
	g := in.g

	l.set("estimate.stats_ms", in.statsMS, "ms")
	l.set("plan.search_ms", in.planMS, "ms")
	l.set("exec.compile_us", in.compileUS, "us")
	l.set("exec.floor_s", in.floorS, "s")
	l.set("exec.floor_ns_per_intop", in.floorS*1e9/float64(in.floor.IntOps), "ns")
	l.set("exec.dbq", float64(in.floor.DBQueries), "count")
	l.set("exec.intops", float64(in.floor.IntOps), "count")
	l.set("exec.enu_steps", float64(in.floor.EnuSteps), "count")
	l.set("exec.matches", float64(in.floor.Matches), "count")
	l.set("exec.codes", float64(in.floor.Codes), "count")
	l.set("vcbc.result_bytes", float64(in.floor.ResultSize), "B")
	t0 := time.Now()
	cached, err := exec.RunAll(in.prog, exec.NewCachedSource(kv.NewLocal(g), g.SizeBytes()+int64(g.NumVertices())*96),
		g.NumVertices(), in.ord, exec.Options{})
	if err != nil {
		return nil, err
	}
	l.set("exec.cached_s", time.Since(t0).Seconds(), "s")
	correct := cached.Matches == in.floor.Matches

	l.graphLayer(g, slice)
	l.cacheLayer(g, slice)
	if err := l.kvLayer(g, in.dir, slice); err != nil {
		return nil, err
	}
	if err := l.nullLayer(in); err != nil {
		return nil, err
	}
	if err := l.journalLayer(in.dir, slice); err != nil {
		return nil, err
	}

	// One real repetition: what the processes themselves report.
	t := tally{correct: correct}
	job := e.runJob(w, scale, in, 0, true)
	if job.err != nil {
		return nil, job.err
	}
	t.add(job, g.NumVertices())
	l.set("ops.failed_share", float64(t.failed)/float64(t.attempted), "fraction")
	l.set("exec.wall_over_floor", job.wallS/in.floorS, "ratio")
	l.set("proc.master_cpu_s", job.hostCPU, "s")
	l.set("proc.workers_cpu_s", job.workCPU, "s")
	l.set("proc.master_rss_mb", job.hostRSS, "MB")
	l.set("proc.worker_rss_mb", job.workRSS, "MB")
	l.set("proc.build_s", e.buildS, "s")
	l.set("sched.tasks", job.snap["sched.tasks.completed"], "count")
	l.set("sched.steals", job.snap["sched.steals"], "count")
	l.set("sched.lease_expired", job.snap["sched.lease.expired"], "count")
	l.set("sched.duplicates", job.snap["sched.tasks.duplicate"], "count")
	l.set("sched.task_remote_p50_us", job.snap["sched.task.remote_ns.p50"]/1e3, "us")
	l.set("sched.task_remote_p99_us", job.snap["sched.task.remote_ns.p99"]/1e3, "us")
	l.set("sched.time_to_ready_ms", job.readyMS, "ms")
	l.set("sched.worker_exit_nonzero", float64(job.workersExitNonzero), "count")

	// The twin, untraced and traced in turn; medians of each.
	var plainWall, tracedWall []float64
	var plain twinResult
	var tr *tracer
	var traced twinResult
	for i := 0; i < 1 || time.Now().Before(deadline); i++ {
		if plain = e.twin(w, in, nil); plain.err != nil {
			return nil, plain.err
		}
		plainWall = append(plainWall, plain.wallS)
		tr = newTracer(w.name)
		if traced = e.twin(w, in, tr); traced.err != nil {
			return nil, traced.err
		}
		tracedWall = append(tracedWall, traced.wallS)
	}
	tracePath := filepath.Join(e.root, "bench", "out", "trace-"+w.name+".json")
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("%-16s trace of the last traced twin: %s\n", w.name, tracePath)

	snap := plain.snap
	hits, misses := snap["cache.hits"], snap["cache.misses"]
	if w.deploy {
		// sched workers publish no cache counters: every executor DBQ
		// that did not reach the wire was a hit.
		misses = float64(plain.keys)
		hits = snap["exec.dbq"] - misses
	}
	l.set("cache.hit_rate", hits/(hits+misses), "fraction")
	l.set("cache.evictions", snap["cache.evictions"], "count")
	l.set("source.singleflight_joins", snap["source.singleflight.joins"], "count")
	l.set("source.batch_keys_mean", snap["source.batch.size.mean"], "count")
	coverage := 0.0
	if inst := snap["source.prefetch.installed"]; inst > 0 {
		coverage = snap["source.prefetch.used"] / inst
	}
	l.set("source.prefetch_coverage", coverage, "fraction")
	l.set("kv.trips", float64(plain.trips), "count")
	l.set("kv.keys", float64(plain.keys), "count")
	l.set("kv.bytes", float64(plain.commBytes), "B")
	l.set("cluster.tasks", snap["cluster.task.duration_ns.count"], "count")
	l.set("cluster.task_p50_us", snap["cluster.task.duration_ns.p50"]/1e3, "us")
	l.set("cluster.task_p99_us", snap["cluster.task.duration_ns.p99"]/1e3, "us")
	l.set("cluster.worker_busy_skew", plain.busiestS/(plain.taskS/float64(w.workers)), "ratio")

	// Attribution off the last traced twin: shares of threads × wall.
	trips := tr.storeTrips()
	tripMean, tripP50, tripP99 := microStats(trips)
	storeWait := tripMean * float64(len(trips)) / 1e6 // seconds
	l.set("kv.trip_p50_us", tripP50, "us")
	l.set("kv.trip_p99_us", tripP99, "us")
	l.set("kv.store_wait_s", storeWait, "s")
	budget := float64(traced.threads) * traced.wallS
	l.set("attr.store_wait_share", storeWait/budget, "fraction")
	l.set("attr.task_self_share", (traced.taskS-storeWait)/budget, "fraction")
	l.set("attr.ctrl_wait_share", (budget-traced.taskS)/budget, "fraction")
	l.set("attr.floor_share", in.floorS/(float64(plain.threads)*median(plainWall)), "fraction")
	journalShare := 0.0
	if w.deploy {
		perTask := l["sched.null_task_fsync_us"].Value - l["sched.null_task_us"].Value
		journalShare = perTask * 1e-6 * snap["sched.tasks.completed"] / median(plainWall)
	}
	l.set("attr.journal_share_est", journalShare, "fraction")
	l.set("trace.overhead_share", median(tracedWall)/median(plainWall)-1, "fraction")
	l.set("trace.twin_over_deploy", median(plainWall)/job.wallS, "ratio")

	return &runResult{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: l}, nil
}
