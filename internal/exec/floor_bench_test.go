package exec

import (
	"math/rand"
	"testing"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/plan"
)

// BenchmarkFloorRelabelled times the floor enumeration — one thread, no
// cache, no wire — of q6's best VCBC plan on the q6-deploy workload
// graph, its ids drawn by a random permutation as the benchmark draws
// them, along both filter paths: "rank" under the graph's (degree, id)
// rank order, where every ≻ is a rank-array lookup per element, and
// "relabelled" on graph.Relabel's copy under its identity order, where
// filters are bounds that trim sorted operands before the intersection.
// Both run the same program and the same instruction counts (see
// TestProbeChangesNoCount); ns/intop and probed/op (entries the hoisted
// intersections test against their bitset) show what the bound path saves.
func BenchmarkFloorRelabelled(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 1500, EdgesPer: 6, Triad: 0.5, Seed: 7})
	perm := rand.New(rand.NewSource(1)).Perm(g.NumVertices())
	edges := g.EdgeList()
	for i, e := range edges {
		edges[i] = [2]int64{int64(perm[e[0]]), int64(perm[e[1]])}
	}
	g = graph.FromEdges(g.NumVertices(), edges)
	prog := compileBest(b, gen.Q(6), g, plan.AllOptions)
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"rank", g}, {"relabelled", graph.Relabel(g)}} {
		b.Run(c.name, func(b *testing.B) {
			ord := graph.NewTotalOrder(c.g)
			var st Stats
			var probed int64
			for i := 0; i < b.N; i++ {
				e := NewExecutor(prog, GraphSource{G: c.g}, c.g.NumVertices(), ord, Options{})
				for v := int64(0); v < int64(c.g.NumVertices()); v++ {
					if _, err := e.Run(Task{Start: v}); err != nil {
						b.Fatal(err)
					}
				}
				st, probed = e.Stats(), e.probed
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.IntOps), "ns/intop")
			b.ReportMetric(float64(probed), "probed/op")
			b.ReportMetric(float64(st.Matches), "matches/op")
		})
	}
}
