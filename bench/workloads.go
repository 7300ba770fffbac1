//go:build unix

package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"benu"
	"benu/internal/estimate"
	"benu/internal/exec"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/plan"
)

// structureSeed fixes the shape of every workload graph. The benchmark's
// -seed argument draws a vertex relabelling of that shape, not a new
// shape: a power-law graph's match count is dominated by a few hubs and
// moves ±20 % between generator seeds (q6, 2 000 vertices: 9.1 M – 13.1 M
// matches), which would bury a 10 % regression bound. A relabelled graph
// is isomorphic — same match count, same amount of work — yet every
// id-dependent decision (hash partition, task order, ≺ tie-breaks, cache
// access order, varint gap sizes) is drawn afresh.
const structureSeed = 7

// workload is one closed-loop job definition: one job at a time, each
// repetition a fresh OS process tree.
type workload struct {
	name    string
	pattern string
	graph   gen.PowerLawConfig
	// deploy runs benu-master + benu-worker processes; otherwise the
	// library path (a store-server child and a RunOnStore child).
	deploy bool
	// workers × threads never exceeds 2: the sandbox has two cores.
	workers int
	threads int
	cacheMB int // deploy: benu-worker -cache-mb
	// prefetchCompact selects the batched, varint-encoded,
	// prefetch-covered data plane on the library path.
	prefetchCompact bool
}

// workloadSet returns the four workloads at the given scale. "full" is
// what BENCHMARK.json runs; "smoke" is the self-test's few-second cut.
func workloadSet(scale string) ([]workload, error) {
	type size struct{ triDeploy, q6Deploy, triLib int }
	sizes := map[string]size{
		"full":  {triDeploy: 4000, q6Deploy: 1500, triLib: 14000},
		"smoke": {triDeploy: 400, q6Deploy: 300, triLib: 2000},
	}
	s, ok := sizes[scale]
	if !ok {
		return nil, fmt.Errorf("unknown -scale %q (want full or smoke)", scale)
	}
	pl := func(n, edgesPer int, triad float64) gen.PowerLawConfig {
		return gen.PowerLawConfig{N: n, EdgesPer: edgesPer, Triad: triad, Seed: structureSeed}
	}
	return []workload{
		{name: "tri-deploy", pattern: "triangle", graph: pl(s.triDeploy, 3, 0.1),
			deploy: true, workers: 2, threads: 1, cacheMB: 1},
		{name: "q6-deploy", pattern: "q6", graph: pl(s.q6Deploy, 6, 0.5),
			deploy: true, workers: 1, threads: 2, cacheMB: 4},
		{name: "tri-lib-raw", pattern: "triangle", graph: pl(s.triLib, 3, 0.1),
			workers: 1, threads: 2},
		{name: "tri-lib-compact", pattern: "triangle", graph: pl(s.triLib, 3, 0.1),
			workers: 1, threads: 2, prefetchCompact: true},
	}, nil
}

// findWorkload looks a workload up by name.
func findWorkload(scale, name string) (workload, error) {
	set, err := workloadSet(scale)
	if err != nil {
		return workload{}, err
	}
	for _, w := range set {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// relabelledGraph generates the workload's fixed power-law structure and
// renames its vertices by the permutation seed draws.
func relabelledGraph(cfg gen.PowerLawConfig, seed int64) *graph.Graph {
	g := gen.PowerLaw(cfg)
	perm := rand.New(rand.NewSource(seed)).Perm(g.NumVertices())
	edges := g.EdgeList()
	for i, e := range edges {
		edges[i] = [2]int64{int64(perm[e[0]]), int64(perm[e[1]])}
	}
	return graph.FromEdges(g.NumVertices(), edges)
}

// input is one workload's generated dataset plus everything derived
// from it that the checks and the layers pass need.
type input struct {
	g *graph.Graph
	// dir holds everything this run writes: the edge list the program
	// is handed, journals, the CSR probe file. Removed when the run ends.
	dir       string
	graphFile string
	twins     int // deploy twins run so far: each gets its own journal file
	// setupS are the wall times of each generate+write round; the
	// reported setup_s is their median.
	setupS []float64
	plan   *benu.ExecutionPlan
	prog   *exec.Program
	ord    *graph.TotalOrder
	// floor is the single-thread, no-cache, no-wire enumeration: its
	// match count is the reference every repetition is checked against.
	floor  exec.Stats
	floorS float64
	// front-end latencies of the pipeline, measured once.
	statsMS, planMS, compileUS float64
}

// Set-up is repeated so that setup_s is a median, not one write that
// may have hit a slow disk: at least setupRounds times, and for the
// small graphs (a few ms each) until setupBudget is spent.
const (
	setupRounds = 5
	setupBudget = 400 * time.Millisecond
)

// prepare generates the dataset (timing each round), writes the edge
// list the program is handed, plans the pattern, and runs the floor
// enumeration.
func prepare(w workload, seed int64, tmp string) (*input, error) {
	dir, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	in := &input{dir: dir, graphFile: filepath.Join(dir, "graph.edges")}
	for begin := time.Now(); len(in.setupS) < setupRounds || time.Since(begin) < setupBudget; {
		t0 := time.Now()
		in.g = relabelledGraph(w.graph, seed)
		if err := writeEdgeList(in.graphFile, in.g); err != nil {
			return nil, err
		}
		in.setupS = append(in.setupS, time.Since(t0).Seconds())
	}
	p, err := benu.PatternByName(w.pattern)
	if err != nil {
		return nil, err
	}
	var best *benu.ExecutionPlan
	in.statsMS, in.planMS, best, err = timedPlan(p, in.g)
	if err != nil {
		return nil, err
	}
	in.plan = best
	t0 := time.Now()
	if in.prog, err = exec.Compile(best); err != nil {
		return nil, err
	}
	in.compileUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	in.ord = graph.NewTotalOrder(in.g)

	t0 = time.Now()
	in.floor, err = exec.RunAll(in.prog, exec.GraphSource{G: in.g}, in.g.NumVertices(), in.ord, exec.Options{})
	if err != nil {
		return nil, fmt.Errorf("floor enumeration: %w", err)
	}
	in.floorS = time.Since(t0).Seconds()
	return in, nil
}

// timedPlan is benu.PlanBest with its two stages timed apart: the
// degree-moment statistics and the Algorithm 3 search.
func timedPlan(p *benu.Pattern, g *graph.Graph) (statsMS, searchMS float64, pl *benu.ExecutionPlan, err error) {
	t0 := time.Now()
	st := estimate.NewStats(g, estimate.MaxMomentDefault)
	statsMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	t0 = time.Now()
	best, err := plan.GenerateBestPlan(p, st, benu.DefaultPlanOptions())
	if err != nil {
		return 0, 0, nil, err
	}
	return statsMS, float64(time.Since(t0).Nanoseconds()) / 1e6, best.Plan, nil
}

func writeEdgeList(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := benu.WriteGraph(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readEdgeList(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benu.ReadGraph(f)
}
