//go:build unix

package main

import (
	"math"
	"os"
	"sort"
	"testing"

	"benu"
)

// The library path re-executes the running binary as its store and job
// children; under `go test` that binary is this one.
func TestMain(m *testing.M) {
	runChild()
	os.Exit(m.Run())
}

// TestSmoke runs all four workloads, both passes, at the smoke scale
// and holds the output to BENCHMARK.json: same workloads, same metric
// names and units in both directions, counts equal to an independent
// brute-force enumeration, attribution shares that add up.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benu-master, benu-worker and store processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	set, err := workloadSet("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != len(sp.Workloads) {
		t.Fatalf("bench has %d workloads, BENCHMARK.json %d", len(set), len(sp.Workloads))
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	for i, w := range set {
		if w.name != sp.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, sp.Workloads[i].Name)
		}
		if w.workers*w.threads > 2 {
			t.Errorf("%s: %d×%d worker threads, the sandbox has 2 cores", w.name, w.workers, w.threads)
		}
		for pass, want := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			res, err := e.runWorkload(w, "smoke", 7, 1, pass)
			if err != nil {
				t.Fatalf("%s -trace %d: %v", w.name, pass, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %d: correct=%v attempted=%d failed=%d", w.name, pass, res.Correct, res.Attempted, res.Failed)
			}
			checkNames(t, w.name, pass, res.Metrics, want)
			if pass == 0 {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, m.Value)
					}
				}
				continue
			}
			shares := res.Metrics["attr.store_wait_share"].Value + res.Metrics["attr.task_self_share"].Value +
				res.Metrics["attr.ctrl_wait_share"].Value
			if math.Abs(shares-1) > 0.02 {
				t.Errorf("%s: attribution shares sum to %v", w.name, shares)
			}
			for _, share := range []string{"attr.store_wait_share", "attr.task_self_share", "attr.ctrl_wait_share"} {
				if v := res.Metrics[share].Value; v < 0 || v > 1 {
					t.Errorf("%s: %s = %v", w.name, share, v)
				}
			}
			p, err := benu.PatternByName(w.pattern)
			if err != nil {
				t.Fatal(err)
			}
			if ref := benu.BruteForceCount(p, relabelledGraph(w.graph, 7)); float64(ref) != res.Metrics["exec.matches"].Value {
				t.Errorf("%s: floor counted %v matches, brute force %d", w.name, res.Metrics["exec.matches"].Value, ref)
			}
			if _, err := os.Stat(root + "/bench/out/trace-" + w.name + ".json"); err != nil {
				t.Errorf("%s: no trace file: %v", w.name, err)
			}
		}
	}
	e.close()
	if _, err := os.Stat(e.tmp); !os.IsNotExist(err) {
		t.Errorf("temp directory %s survives close", e.tmp)
	}
}

func checkNames(t *testing.T, workload string, pass int, got map[string]metric, want []metricSpec) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s -trace %d: BENCHMARK.json metric %s not emitted", workload, pass, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s -trace %d: %s emitted in %q, BENCHMARK.json says %q", workload, pass, m.Name, g.Unit, m.Unit)
		}
	}
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s -trace %d: emitted metrics missing from BENCHMARK.json: %v", workload, pass, extra)
	}
}

func TestParseMasterOutput(t *testing.T) {
	out := "data graph: N=10 M=20 maxdeg=5\n" +
		"master: serving tasks on 127.0.0.1:1 (2 storage nodes, epoch 1)\n" +
		"matches=42 tasks=10 (split=0, replayed=0) workers=2 steals=1 expired=2 retried=3 duplicates=0 stale=0 wall=5ms\n" +
		"counters:\n  sched.steals           1\ngauges:\n  sched.epoch 1\nhistograms:\n" +
		"  sched.task.remote_ns   count=10 min=1 mean=2.5 p50=2 p95=4 p99=5 max=6 sum=25\n"
	s := parseSummary(out)
	if s["matches"] != 42 || s["tasks"] != 10 || s["expired"] != 2 || s["retried"] != 3 || s["replayed"] != 0 {
		t.Errorf("parseSummary = %v", s)
	}
	snap := parseSnapshot(out)
	if snap["sched.steals"] != 1 || snap["sched.task.remote_ns.p99"] != 5 || snap["sched.task.remote_ns.sum"] != 25 {
		t.Errorf("parseSnapshot = %v", snap)
	}
	mergeSnapshot(snap, map[string]float64{"sched.steals": 2, "sched.task.remote_ns.p99": 3, "sched.task.remote_ns.sum": 5})
	if snap["sched.steals"] != 3 || snap["sched.task.remote_ns.p99"] != 5 || snap["sched.task.remote_ns.sum"] != 30 {
		t.Errorf("mergeSnapshot = %v", snap)
	}
}

// Python: statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
// = [3.5, 24.0, 160.0]; median 24.
func TestQuartileSpread(t *testing.T) {
	got := quartileSpread([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if want := (160.0 - 3.5) / 24; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// Three samples: Python gives [1.0, 2.0, 3.0].
	if got := quartileSpread([]float64{3, 1, 2}); got != 1 {
		t.Errorf("quartileSpread of three = %v, want 1", got)
	}
}

func TestTally(t *testing.T) {
	tl := tally{correct: true}
	tl.add(jobResult{tasks: 100, failedOps: 3}, 50)
	tl.add(jobResult{err: os.ErrInvalid}, 50)
	if tl.attempted != 150 || tl.failed != 53 || tl.correct {
		t.Errorf("tally = %+v", tl)
	}
}
