// Package cli is the front end benu and benu-master share. It registers
// the flags both binaries take, with each binary's default and help text
// in one table, and it loads the job those flags describe: the data
// graph, the pattern, and the pattern's best plan. benu-decode and
// benu-store read their graphs through it too.
package cli

import (
	"flag"
	"fmt"
	"os"

	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/plan"
)

// Binary indexes the per-binary columns of the flag table.
type Binary int

const (
	Benu   Binary = iota // cmd/benu: the simulated cluster in one process
	Master               // cmd/benu-master: the networked master
)

// shared is the one table of the flags benu and benu-master share: each
// flag's default per Binary, and its help text per Binary, or one text
// when both binaries say the same. README's CLI table mirrors it.
var shared = []struct {
	name  string
	def   [2]any
	usage []string
}{
	{"pattern", [2]any{"triangle", "triangle"}, []string{"pattern: triangle, square, chordal-square, q1..q9, cliqueK, pathK, cycleK, starK, demo"}},
	{"graph", [2]any{"", ""}, []string{"data graph edge-list file (overrides -preset)"}},
	{"preset", [2]any{"ok", "as"}, []string{"synthetic dataset preset: as, lj, ok, uk, fs"}},
	{"tau", [2]any{500, 500}, []string{"task splitting degree threshold (0 = off)"}},
	{"uncompressed", [2]any{false, false}, []string{"disable VCBC compression"}},
	{"degree-filter", [2]any{false, false}, []string{"add degree filtering conditions (§IV-A extension)"}},
	{"retry", [2]any{2, 2}, []string{
		"fault tolerance: store-call retries and task re-executions per failure (0 = off)",
		"task re-executions per failure or expired lease (0 = off)"}},
	{"prefetch", [2]any{false, true}, []string{
		"batch-prefetch adjacency: each task window's start vertices, and ENU candidates before enumerating",
		"workers batch-prefetch adjacency: each lease batch's start vertices and first-level candidates, and ENU candidates before enumerating; -prefetch=false is the paper's one-query-per-miss data plane (Fig. 8-style runs, or a compute-bound job on a graph that fits the workers' caches)"}},
	{"metrics", [2]any{false, false}, []string{"print the run's metrics snapshot (see docs/METRICS.md)"}},
	{"v", [2]any{false, false}, []string{"print the execution plan and per-worker stats", "print the execution plan"}},
}

// Register adds the shared flags to fs with bin's defaults and help
// text. dst maps each flag's name to the variable that receives it.
func Register(fs *flag.FlagSet, bin Binary, dst map[string]any) {
	for _, f := range shared {
		usage := f.usage[min(int(bin), len(f.usage)-1)]
		switch p := dst[f.name].(type) {
		case *string:
			fs.StringVar(p, f.name, f.def[bin].(string), usage)
		case *int:
			fs.IntVar(p, f.name, f.def[bin].(int), usage)
		case *bool:
			fs.BoolVar(p, f.name, f.def[bin].(bool), usage)
		default:
			panic(fmt.Sprintf("cli: -%s needs a variable of its type, got %T", f.name, p))
		}
	}
}

// LoadGraph reads the edge-list file at path, or generates the named
// preset when path is empty, and relabels it by ≺ (graph.Relabel), so
// that store nodes, CSR files, master and workers share one id space in
// which graph.NewTotalOrder is the identity and symmetry-breaking
// filters are bounds on sorted lists. The input graph is dropped once
// relabelled; the result's InputID and InputOrder map back to its ids,
// which is what output reports.
func LoadGraph(path, preset string) (*graph.Graph, error) {
	if path == "" {
		p, err := gen.PresetByName(preset)
		if err != nil {
			return nil, err
		}
		return graph.Relabel(p.Generate()), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, err
	}
	return graph.Relabel(g), nil
}

// Load is the job the shared flags describe: it parses the pattern,
// loads the graph and prints its size, and plans the pattern on it with
// every optimization, VCBC compression unless uncompressed, and the
// degree filter and clique cache as asked.
func Load(pattern, graphPath, preset string, uncompressed, degreeFilter, cliqueCache bool) (*graph.Graph, *plan.BestPlanResult, error) {
	p, err := gen.PatternByName(pattern)
	if err != nil {
		return nil, nil, err
	}
	g, err := LoadGraph(graphPath, preset)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("data graph: N=%d M=%d maxdeg=%d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())
	opts := plan.AllOptions
	opts.VCBC = !uncompressed
	opts.DegreeFilter = degreeFilter
	opts.CliqueCache = cliqueCache
	best, err := plan.GenerateBestPlan(p, estimate.NewStats(g, estimate.MaxMomentDefault), opts)
	return g, best, err
}
