package check

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/plan"
)

// matrixPatterns are the preset patterns every differential batch
// cross-validates. To add a preset to the matrix, append it here (and to
// the fuller all=true list if it is cheap enough for -short runs); see
// docs/TESTING.md.
func matrixPatterns(all bool) []*graph.Pattern {
	ps := []*graph.Pattern{
		gen.Triangle(),
		gen.Square(),
		gen.ChordalSquare(),
		gen.Q(1),
		gen.Q(4),
		gen.Q(6),
	}
	if all {
		ps = append(ps, gen.Q(2), gen.DemoPattern())
	}
	return ps
}

// sparseSpec keeps the reference enumerator fast: power-law and sparse
// uniform graphs up to ~56 vertices.
var sparseSpec = gen.RandomGraphSpec{MinN: 8, MaxN: 56, Models: []string{"er-sparse", "powerlaw"}}

// denseSpec stresses high-clustering inputs (triangle caches, VCBC image
// sets); kept small because both sides enumerate every embedding.
var denseSpec = gen.RandomGraphSpec{MinN: 8, MaxN: 22, Models: []string{"er-dense"}}

// TestDifferentialMatrix is the main cross-validation sweep: random data
// graphs × preset patterns × plan variants × backends, counts and
// canonicalized embedding sets compared against the reference enumerator.
// -short runs a reduced matrix (3 sparse graphs, raw/opt/vcbc, two
// backends); the full run adds dense graphs, the degree-filtered variant,
// and the batched backend.
func TestDifferentialMatrix(t *testing.T) {
	cfg := BatchConfig{
		Seed:     2024,
		Graphs:   3,
		Spec:     sparseSpec,
		Patterns: matrixPatterns(!testing.Short()),
		Variants: ShortVariants(),
	}
	if testing.Short() {
		all := Backends(nil)
		cfg.Backends = []Backend{all[0], all[2]} // exec + cluster-split
	} else {
		cfg.Graphs = 6
		cfg.Variants = Variants()
	}
	for _, m := range RunBatch(cfg) {
		t.Error(m.String())
	}
	if !testing.Short() {
		dense := cfg
		dense.Seed = 7000
		dense.Graphs = 3
		dense.Spec = denseSpec
		for _, m := range RunBatch(dense) {
			t.Error(m.String())
		}
	}
}

func TestRandomDataGraphSeededReproducibility(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := gen.RandomDataGraph(sparseSpec, seed)
		b := gen.RandomDataGraph(sparseSpec, seed)
		if a.NumVertices() != b.NumVertices() || !reflect.DeepEqual(a.EdgeList(), b.EdgeList()) {
			t.Fatalf("seed %d: RandomDataGraph is not deterministic", seed)
		}
	}
	// Distinct seeds must not all collapse onto one graph.
	if reflect.DeepEqual(gen.RandomDataGraph(sparseSpec, 1).EdgeList(),
		gen.RandomDataGraph(sparseSpec, 2).EdgeList()) {
		t.Error("seeds 1 and 2 generated identical graphs")
	}
}

// truncatingStore simulates a subtly corrupt database: one vertex's
// adjacency set is served with its last neighbor missing. The harness
// must detect the resulting miscount and shrink the witness graph.
type truncatingStore struct {
	inner  kv.Store
	victim int64
}

func (s truncatingStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	lists, err := s.inner.GetAdjBatch(vs)
	if err != nil {
		return nil, err
	}
	for i, v := range vs {
		if v != s.victim {
			continue
		}
		adj, err := lists[i].Decode()
		if err != nil || len(adj) == 0 {
			continue
		}
		lists[i] = graph.EncodeAdjList(adj[:len(adj)-1])
	}
	return lists, nil
}

func (s truncatingStore) NumVertices() int { return s.inner.NumVertices() }

func TestHarnessCatchesInjectedBugAndShrinks(t *testing.T) {
	wrap := func(s kv.Store) kv.Store { return truncatingStore{inner: s, victim: 0} }
	buggy := Backends(wrap)[0] // exec backend over the corrupt store
	opt := Variants()[1]

	// K4: truncating vertex 0's adjacency must lose triangles.
	g := graph.FromEdges(4, [][2]int64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	m := Validate(gen.Triangle(), g, opt, buggy)
	if m == nil {
		t.Fatal("harness missed the corrupt store")
	}
	if m.Err != nil {
		t.Fatalf("expected a count mismatch, got backend error: %v", m.Err)
	}
	if m.GotCount >= m.WantCount {
		t.Errorf("corrupt store should undercount: got %d, reference %d", m.GotCount, m.WantCount)
	}
	if len(m.Missing) == 0 {
		t.Error("mismatch reports no missing embeddings")
	}

	// The batch driver must find it on random graphs too, and shrink the
	// counterexample below the original graph.
	cfg := BatchConfig{
		Seed:     42,
		Graphs:   1,
		Spec:     gen.RandomGraphSpec{MinN: 16, MaxN: 16, Models: []string{"er-dense"}},
		Patterns: []*graph.Pattern{gen.Triangle()},
		Variants: []Variant{opt},
		Backends: []Backend{buggy},
	}
	// The batch also runs the graph relabelled by ≺, where vertex 0 is
	// the least-degree vertex and here lies on no triangle: truncating its
	// list loses nothing, and that form must pass.
	ms := RunBatch(cfg)
	if len(ms) != 1 || ms[0].Relabelled {
		t.Fatalf("RunBatch found %d mismatches, want 1, on the graph as generated", len(ms))
	}
	orig := gen.RandomDataGraph(cfg.Spec, cfg.Seed)
	if graph.CountTriangles(graph.Relabel(orig)) == 0 || Validate(gen.Triangle(), graph.Relabel(orig), opt, buggy) != nil {
		t.Fatal("the relabelled form does not pass as the batch says")
	}
	got := ms[0]
	if !got.Shrunk || got.Graph.NumVertices() >= orig.NumVertices() {
		t.Errorf("counterexample not shrunk: %d vertices (original %d, Shrunk=%v)",
			got.Graph.NumVertices(), orig.NumVertices(), got.Shrunk)
	}
	// The shrunken graph must still exhibit the failure.
	if Validate(gen.Triangle(), got.Graph, opt, buggy) == nil {
		t.Error("shrunken counterexample no longer fails")
	}
	if got.String() == "" {
		t.Error("empty mismatch report")
	}

	// A victim on a triangle in the relabelled graph fails that form too,
	// and its counterexample shrinks in the relabelled id space.
	h := graph.Relabel(orig)
	victim := int64(-1)
	for v := int64(0); v < int64(h.NumVertices()) && victim < 0; v++ {
		adj := h.Adj(v)
		if len(adj) > 1 && adj[len(adj)-1] > v {
			for _, w := range adj {
				if w > v && w != adj[len(adj)-1] && h.HasEdge(w, adj[len(adj)-1]) {
					victim = v
					break
				}
			}
		}
	}
	cfg.Backends = []Backend{Backends(func(s kv.Store) kv.Store { return truncatingStore{inner: s, victim: victim} })[0]}
	var relabelled *Mismatch
	for _, m := range RunBatch(cfg) {
		if m.Relabelled {
			relabelled = m
		}
	}
	if relabelled == nil {
		t.Fatalf("truncating vertex %d of the relabelled graph went unnoticed", victim)
	}
	if !relabelled.Shrunk || Validate(gen.Triangle(), relabelled.Graph, opt, cfg.Backends[0]) == nil {
		t.Errorf("relabelled counterexample not shrunk (%v) or no longer failing", relabelled.Shrunk)
	}
}

// TestErrorPathsSurfaceInjectedFailures cross-validates the error paths:
// with a fault-injecting store underneath, every backend × variant must
// surface an error that still wraps kv.ErrInjected after crossing the
// executor and cluster layers. The networked backends are the
// exception: a worker's error crosses the wire as a message (like
// rpc.ServerError), so identity cannot survive — the message must.
func TestErrorPathsSurfaceInjectedFailures(t *testing.T) {
	g := gen.RandomDataGraph(sparseSpec, 31)
	p := gen.Q(1)
	for _, v := range ShortVariants() {
		wrap := func(s kv.Store) kv.Store {
			f := kv.NewFaulty(s)
			f.FailEveryN = 3
			return f
		}
		for _, b := range Backends(wrap) {
			m := Validate(p, g, v, b)
			if m == nil || m.Err == nil {
				t.Errorf("%s/%s: injected store failures did not surface", v.Name, b.Name)
				continue
			}
			if strings.HasPrefix(b.Name, "net") {
				if !strings.Contains(m.Err.Error(), kv.ErrInjected.Error()) {
					t.Errorf("%s/%s: remote error lost the cause message: %v", v.Name, b.Name, m.Err)
				}
				continue
			}
			if !errors.Is(m.Err, kv.ErrInjected) {
				t.Errorf("%s/%s: error chain lost ErrInjected: %v", v.Name, b.Name, m.Err)
			}
		}
	}
}

// TestBatchIsDeterministic reruns a small batch and requires identical
// outcomes — the reproducibility contract counterexample reports rely on.
func TestBatchIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the full run")
	}
	cfg := BatchConfig{
		Seed:     99,
		Graphs:   2,
		Spec:     sparseSpec,
		Patterns: []*graph.Pattern{gen.Triangle(), gen.Q(1)},
		Variants: ShortVariants(),
	}
	a, b := RunBatch(cfg), RunBatch(cfg)
	if len(a) != 0 || len(b) != 0 {
		t.Fatalf("healthy stack mismatched: %d and %d failures", len(a), len(b))
	}
}

// TestDifferentialSmallModel runs check.SmallModel — every graph on k
// vertices under the identity order, against |all matches| / |Aut(P)| —
// for every connected pattern on 2 to 5 vertices, with the planner's
// order and the raw, optimized, degree-filtered and VCBC plans. It fails
// when a single restriction is dropped from the plans (docs/TESTING.md).
// A labeled column runs the patterns on 2 to 4 vertices with two labels,
// on every two-labelling of every graph: symmetric labeled patterns on
// the bound path, where a label condition is one of an INT's rest filters.
func TestDifferentialSmallModel(t *testing.T) {
	st := estimate.UniformStats(100_000, 20)
	want := []int{2: 1, 3: 2, 4: 6, 5: 21}
	variants := append(ShortVariants(), Variants()[2])
	for k := 2; k <= 5; k++ {
		ps := ConnectedPatterns(k)
		if len(ps) != want[k] {
			t.Fatalf("%d connected patterns on %d vertices, want %d", len(ps), k, want[k])
		}
		for _, p := range ps {
			for _, v := range variants {
				smallModel(t, p, st, v)
			}
			if k > 4 {
				continue
			}
			// u1 apart from the rest (symmetries among the others stay),
			// and alternating labels.
			for _, label := range []func(u int) int64{
				func(u int) int64 { return int64(min(u, 1)) },
				func(u int) int64 { return int64(u % 2) },
			} {
				labels := make([]int64, k)
				for u := range labels {
					labels[u] = label(u)
				}
				lp, err := graph.NewLabeledPattern(p.Name()+fmt.Sprint(labels), k, p.Graph().EdgeList(), labels)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range ShortVariants() {
					smallModel(t, lp, st, v)
				}
			}
		}
	}
}

// smallModel plans p at variant v and runs check.SmallModel on the plan.
func smallModel(t *testing.T, p *graph.Pattern, st *estimate.Stats, v Variant) {
	t.Helper()
	res, err := plan.GenerateBestPlan(p, st, v.Opts)
	if err != nil {
		t.Fatalf("%s %s: %v", p, v.Name, err)
	}
	if err := SmallModel(res.Plan); err != nil {
		t.Errorf("%s: %v", v.Name, err)
	}
}
