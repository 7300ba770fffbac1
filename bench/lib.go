//go:build unix

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"strings"
	"time"

	"benu"
	"benu/internal/graph"
)

// The library path as a user's program would take it, in two fresh
// processes per repetition: a store child serving the graph on two
// kv.Serve partitions, and a job child that loads the same edge list,
// plans, benu.DialStore's the partitions and calls benu.RunOnStore. Both
// are this binary re-executed with -child.

// storePartitions is the number of storage nodes on both paths (the
// benu-master -store-partitions default).
const storePartitions = 2

// libConfig is the library path's cluster configuration: one machine,
// the cache a quarter of the graph so it is under real pressure. A nil
// reg leaves the run on the process-wide default registry.
func libConfig(w workload, g *graph.Graph, reg *benu.Metrics) benu.ClusterConfig {
	cfg := benu.DefaultClusterConfig(g)
	cfg.Workers = w.workers
	cfg.ThreadsPerWorker = w.threads
	cfg.CacheBytes = g.SizeBytes() / 4
	cfg.Prefetch = w.prefetchCompact
	cfg.CompactAdjacency = w.prefetchCompact
	cfg.Obs = reg
	return cfg
}

// childStore is `bench -child store <edge-list>`: serve until stdin
// closes, which also ends it when the bench itself dies.
func childStore(graphFile string) error {
	g, err := readEdgeList(graphFile)
	if err != nil {
		return err
	}
	servers, addrs, err := benu.ServeGraph(g, storePartitions)
	if err != nil {
		return err
	}
	fmt.Printf("addrs %s\n", strings.Join(addrs, ","))
	io.Copy(io.Discard, os.Stdin)
	for _, s := range servers {
		s.Close()
	}
	return nil
}

// libReport is what the job child prints: one JSON line.
type libReport struct {
	WallS     float64 `json:"wall_s"` // duration of the RunOnStore call
	Matches   int64   `json:"matches"`
	Tasks     int     `json:"tasks"`
	FailedOps int     `json:"failed_ops"`
	CommBytes int64   `json:"comm_bytes"`
}

// childJob is `bench -child job <workload> <scale> <edge-list> <addrs>`.
func childJob(name, scale, graphFile, addrs string) error {
	w, err := findWorkload(scale, name)
	if err != nil {
		return err
	}
	g, err := readEdgeList(graphFile)
	if err != nil {
		return err
	}
	p, err := benu.PatternByName(w.pattern)
	if err != nil {
		return err
	}
	pl, err := benu.PlanBest(p, g, benu.DefaultPlanOptions())
	if err != nil {
		return err
	}
	client, err := benu.DialStore(strings.Split(addrs, ","), g.NumVertices())
	if err != nil {
		return err
	}
	defer client.Close()
	t0 := time.Now()
	res, err := benu.RunOnStore(pl, client, benu.NewOrder(g), g.Degree, libConfig(w, g, nil))
	wall := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(libReport{
		WallS: wall, Matches: res.Matches, Tasks: res.Tasks,
		FailedOps: res.TasksRetried + res.TasksFailed,
		CommBytes: client.Metrics().Bytes(),
	})
}

// runLib runs one repetition of a library workload.
func (e *env) runLib(w workload, scale, graphFile string) jobResult {
	var r jobResult
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		r.err = err
		return r
	}
	store := osexec.Command(self, "-child", "store", graphFile)
	store.Stderr = os.Stderr
	stdin, err := store.StdinPipe()
	if err != nil {
		r.err = err
		return r
	}
	stdout, err := store.StdoutPipe()
	if err != nil {
		r.err = err
		return r
	}
	sc, err := e.start(store)
	if err != nil {
		r.err = err
		return r
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	addrs, ok := strings.CutPrefix(strings.TrimSpace(line), "addrs ")
	if err != nil || !ok {
		stdin.Close()
		e.wait(sc, 3*time.Second)
		r.err = fmt.Errorf("store child did not report its addresses (%q, %v)", line, err)
		return r
	}

	job := osexec.Command(self, "-child", "job", w.name, scale, graphFile, addrs)
	var jobOut, jobErr bytes.Buffer
	job.Stdout, job.Stderr = &jobOut, &jobErr
	var ju usage
	if jc, err := e.start(job); err != nil {
		r.err = err
	} else {
		ju = e.wait(jc, -1)
	}
	r.elapsedS = time.Since(start).Seconds()
	stdin.Close()
	su := e.wait(sc, 3*time.Second)

	r.hostCPU, r.hostRSS = su.cpuS, su.rssMB
	r.workCPU, r.workRSS = ju.cpuS, ju.rssMB
	r.cpuS, r.rssMB = su.cpuS+ju.cpuS, su.rssMB+ju.rssMB
	if r.err != nil {
		return r
	}
	if ju.err != nil {
		r.err = fmt.Errorf("job child: %v: %s", ju.err, strings.TrimSpace(jobErr.String()))
		return r
	}
	var rep libReport
	if err := json.Unmarshal(jobOut.Bytes(), &rep); err != nil {
		r.err = fmt.Errorf("job child output: %v: %q", err, jobOut.String())
		return r
	}
	r.wallS, r.matches, r.tasks, r.failedOps = rep.WallS, rep.Matches, rep.Tasks, rep.FailedOps
	r.commMB = float64(rep.CommBytes) / 1e6
	return r
}
