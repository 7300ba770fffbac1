package exec

import (
	"testing"

	"benu/internal/gen"
	"benu/internal/graph"
)

// sinkLen keeps the benchmarked kernels' results alive.
var sinkLen int

// BenchmarkIntersectHoisted times the kernel swap on its own, on the
// q6-deploy workload graph: for every edge (u,v), u < v, A(u)∩A(v) by
// merging the two lists (what every per-candidate INT did) against
// marking A(u) in a bitset once per u and probing each A(v) (mark and
// unmark included), over raw lists and over varint-delta encoded A(v).
// The ns/elem metric divides by the entries of both input lists, the
// denominator of the benchmark's graph.intersect_*_ns_per_elem, so the
// four rows compare directly: probe/raw under merge/raw is the saving of
// a hoisted INT on the raw read path, the enc pair that of the compact.
func BenchmarkIntersectHoisted(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 1500, EdgesPer: 6, Triad: 0.5, Seed: 7})
	ca := graph.NewCompactAdjacency(g)
	n := int64(g.NumVertices())
	var elems float64
	for _, e := range g.EdgeList() {
		elems += float64(g.Degree(e[0]) + g.Degree(e[1]))
	}
	dst := make([]int64, 0, g.MaxDegree())
	bits := graph.NewBitset(g.NumVertices())
	// later returns the neighbours of u above it: the v of edges (u,v).
	later := func(u int64) []int64 {
		adj := g.Adj(u)
		for i, v := range adj {
			if v > u {
				return adj[i:]
			}
		}
		return nil
	}
	kernels := []struct {
		name string
		pass func()
	}{
		{"merge/raw", func() {
			for u := int64(0); u < n; u++ {
				for _, v := range later(u) {
					dst = graph.IntersectSorted(dst[:0], g.Adj(u), g.Adj(v))
				}
			}
		}},
		{"probe/raw", func() {
			for u := int64(0); u < n; u++ {
				bits.Add(g.Adj(u))
				for _, v := range later(u) {
					dst = bits.AppendMembers(dst[:0], g.Adj(v))
				}
				bits.Remove(g.Adj(u))
			}
		}},
		{"merge/enc", func() {
			for u := int64(0); u < n; u++ {
				for _, v := range later(u) {
					dst, _ = ca.List(v).IntersectSorted(dst[:0], g.Adj(u))
				}
			}
		}},
		{"probe/enc", func() {
			for u := int64(0); u < n; u++ {
				bits.Add(g.Adj(u))
				for _, v := range later(u) {
					dst, _ = ca.List(v).AppendMembers(dst[:0], bits)
				}
				bits.Remove(g.Adj(u))
			}
		}},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.pass()
			}
			sinkLen = len(dst)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
		})
	}
}
