//go:build unix

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// jobResult is one repetition of a workload: one fresh process tree,
// run to completion.
type jobResult struct {
	// elapsedS is how long the repetition took to produce its result;
	// reaping a straggling worker afterwards is not part of it.
	elapsedS float64

	wallS  float64
	cpuS   float64 // user+sys over every process of the job
	rssMB  float64 // sum of max-RSS over the job's processes
	commMB float64 // store-wire payload (library path only: the shipped binaries print no wire counter)

	matches   int64
	tasks     int
	failedOps int   // tasks retried + tasks failed + leases expired
	err       error // the job did not produce a result

	// hostCPU/hostRSS are the process that serves the store (benu-master,
	// or the library path's store child); workCPU/workRSS the enumerating
	// ones (benu-worker, or the RunOnStore child; RSS is the largest).
	hostCPU, workCPU   float64
	hostRSS, workRSS   float64
	readyMS            float64 // master exec → "serving tasks"
	workersExitNonzero int
	// snap is the processes' own -metrics output, flattened: counters and
	// gauges by name, histograms as name.count/.sum/.p50/.p99.
	snap map[string]float64
}

// runDeploy runs the real binaries as an operator would: benu-master
// with a fsync'd journal and two in-master store partitions, workers
// started the moment it serves. rep names the journal file.
func (e *env) runDeploy(w workload, in *input, rep int, metrics bool) jobResult {
	var r jobResult
	addr, err := freeAddr()
	if err != nil {
		r.err = err
		return r
	}
	margs := []string{"-pattern", w.pattern, "-graph", in.graphFile, "-listen", addr,
		"-journal", filepath.Join(in.dir, fmt.Sprintf("rep-%d.journal", rep))}
	wargs := []string{"-master", addr, "-threads", strconv.Itoa(w.threads), "-cache-mb", strconv.Itoa(w.cacheMB)}
	if metrics {
		margs = append(margs, "-metrics")
		wargs = append(wargs, "-metrics")
	}
	master := osexec.Command(filepath.Join(e.binDir, "benu-master"), margs...)
	var masterErr bytes.Buffer
	master.Stderr = &masterErr
	stdout, err := master.StdoutPipe()
	if err != nil {
		r.err = err
		return r
	}
	start := time.Now()
	mc, err := e.start(master)
	if err != nil {
		r.err = err
		return r
	}

	// Scan the master's stdout: "serving tasks" releases the workers,
	// everything is kept for parsing once it exits.
	ready := make(chan struct{})
	var masterOut bytes.Buffer
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		released := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			masterOut.Write(sc.Bytes())
			masterOut.WriteByte('\n')
			if !released && strings.Contains(sc.Text(), "serving tasks") {
				released = true
				close(ready)
			}
		}
		if !released {
			close(ready)
		}
	}()
	<-ready
	r.readyMS = float64(time.Since(start).Nanoseconds()) / 1e6

	var workers []*child
	workerOut := make([]bytes.Buffer, w.workers)
	workerErr := make([]bytes.Buffer, w.workers)
	for i := range workerOut {
		cmd := osexec.Command(filepath.Join(e.binDir, "benu-worker"), wargs...)
		cmd.Stdout = &workerOut[i]
		cmd.Stderr = &workerErr[i]
		c, err := e.start(cmd)
		if err != nil {
			// Nobody will drain the queue: end the master too.
			r.err = err
			syscall.Kill(-master.Process.Pid, syscall.SIGKILL)
			break
		}
		workers = append(workers, c)
	}

	<-scanned
	mu := e.wait(mc, -1)
	r.wallS = time.Since(start).Seconds()
	r.elapsedS = r.wallS
	// The workers see Done and leave on their own; do not sit out their
	// 30 s -rejoin-for when one is stuck retrying a master that is gone.
	r.hostCPU, r.hostRSS = mu.cpuS, mu.rssMB
	for i, c := range workers {
		wu := e.wait(c, 3*time.Second)
		if wu.err != nil {
			// Counted, not hidden: a worker that fails after a correct
			// master result still failed.
			fmt.Fprintf(os.Stderr, "bench: %s rep %d: worker %d: %v: %s\n", w.name, rep, i, wu.err, lastLine(workerErr[i].String()))
		}
		r.workCPU += wu.cpuS
		r.rssMB += wu.rssMB
		if wu.rssMB > r.workRSS {
			r.workRSS = wu.rssMB
		}
		if wu.err != nil {
			r.workersExitNonzero++
		}
	}
	r.cpuS = r.hostCPU + r.workCPU
	r.rssMB += r.hostRSS
	if r.err != nil {
		return r
	}
	if mu.err != nil {
		r.err = fmt.Errorf("benu-master: %v: %s", mu.err, strings.TrimSpace(masterErr.String()))
		return r
	}
	summary := parseSummary(masterOut.String())
	if summary == nil {
		r.err = fmt.Errorf("benu-master printed no matches= line:\n%s", masterOut.String())
		return r
	}
	r.matches = summary["matches"]
	r.tasks = int(summary["tasks"])
	r.failedOps = int(summary["retried"] + summary["expired"])
	if metrics {
		r.snap = parseSnapshot(masterOut.String())
		for i := range workerOut {
			mergeSnapshot(r.snap, parseSnapshot(workerOut[i].String()))
		}
	}
	return r
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// parseSummary extracts the integer key=value fields of the master's
// final "matches=… tasks=… (split=…, replayed=…) workers=… …" line.
func parseSummary(out string) map[string]int64 {
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "matches=") {
			continue
		}
		fields := map[string]int64{}
		for _, tok := range strings.Fields(line) {
			k, v, ok := strings.Cut(strings.Trim(tok, "(),"), "=")
			if !ok {
				continue
			}
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				fields[k] = n
			}
		}
		return fields
	}
	return nil
}

// mergeSnapshot folds one process's snapshot into dst: counts and sums
// add up, a quantile or extreme keeps the worst process's value.
func mergeSnapshot(dst, src map[string]float64) {
	for k, v := range src {
		switch filepath.Ext(k) {
		case ".min", ".mean", ".p50", ".p95", ".p99", ".max":
			if v > dst[k] {
				dst[k] = v
			}
		default:
			dst[k] += v
		}
	}
}

// parseSnapshot reads the obs text snapshot a CLI prints under -metrics:
// "  name value" for counters and gauges, "  name count=… p50=… …" for
// histograms (kept as name.count, name.p50, …).
func parseSnapshot(out string) map[string]float64 {
	snap := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if !strings.Contains(f[1], "=") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				snap[f[0]] = v
			}
			continue
		}
		for _, kv := range f[1:] {
			k, v, _ := strings.Cut(kv, "=")
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				snap[f[0]+"."+k] = x
			}
		}
	}
	return snap
}
