package check

import (
	"fmt"
	"slices"

	"benu/internal/exec"
	"benu/internal/graph"
	"benu/internal/plan"
)

// SmallModel checks that pl reports every subgraph isomorphic to its
// pattern P exactly once on every data graph, by running it on every
// graph on k = |V(P)| vertices — 2^(k(k−1)/2) of them: 64 at k = 4,
// 1 024 at k = 5 — under graph.IdentityOrder, the regime in which the
// executor applies symmetry-breaking filters as bounds on sorted lists.
//
// That suffices: whether a plan emits an embedding f with image S
// depends only on G[S], on ≺ restricted to S and on the labels of S
// (membership tests adjacency among images, every filter but
// FilterMinDeg relates images or reads their labels, and FilterMinDeg
// passes every true embedding because d_G ≥ d_G[S] ≥ d_P), so every
// (G[S], ≺|S) is one of these graphs under the identity.
//
// The oracle shares nothing with the plan's restriction set: it is
// graph.RefCountAllMatches, which breaks no symmetry, divided by
// |Aut(P)|. SmallModel returns an error naming the first graph where
// the two disagree, nil when none does. A labeled pattern runs on every
// labelling of every graph with the pattern's own labels — the only ones
// an image can carry — and |Aut(P)| counts label-preserving maps; a
// degree-filtered plan gets the graph's degrees.
func SmallModel(pl *plan.Plan) error {
	p := pl.Pattern
	k := p.NumVertices()
	prog, err := exec.Compile(pl)
	if err != nil {
		return err
	}
	aut := int64(len(p.Automorphisms()))
	ord := graph.IdentityOrder(k)
	pairs := vertexPairs(k)
	labelings := [][]int64{nil}
	if p.Labeled() {
		labelings = labelingsOf(p)
	}
	for mask := 0; mask < 1<<len(pairs); mask++ {
		for _, labels := range labelings {
			g := graph.FromEdges(k, edgesOf(pairs, mask))
			opts := exec.Options{TriangleCacheEntries: 16}
			if labels != nil {
				if g, err = g.WithVertexLabels(labels); err != nil {
					return err
				}
				opts.LabelOf = g.Label
			}
			if pl.DegreeFiltered {
				opts.DegreeOf = g.Degree
			}
			want := graph.RefCountAllMatches(p, g) / aut
			st, err := exec.RunAll(prog, exec.GraphSource{G: g}, k, ord, opts)
			if err != nil {
				return fmt.Errorf("check: small model of %s on %v labels %v: %w", p.Name(), g.EdgeList(), labels, err)
			}
			if st.Matches != want {
				return fmt.Errorf("check: small model of %s on %v labels %v: %d matches, |all matches|/|Aut(P)| = %d",
					p.Name(), g.EdgeList(), labels, st.Matches, want)
			}
		}
	}
	return nil
}

// labelingsOf returns every map from p's vertices to p's labels.
func labelingsOf(p *graph.Pattern) [][]int64 {
	var labels []int64
	for u := 0; u < p.NumVertices(); u++ {
		labels = append(labels, p.Label(int64(u)))
	}
	slices.Sort(labels)
	labels = slices.Compact(labels)
	out := [][]int64{{}}
	for range p.NumVertices() {
		var next [][]int64
		for _, l := range out {
			for _, x := range labels {
				next = append(next, append(slices.Clone(l), x))
			}
		}
		out = next
	}
	return out
}

// ConnectedPatterns returns one pattern per isomorphism class of the
// connected graphs on k vertices (1, 2, 6 and 21 of them for k = 2..5),
// named c<k>-<i>.
func ConnectedPatterns(k int) []*graph.Pattern {
	pairs := vertexPairs(k)
	perms := permutations(k)
	seen := map[int]bool{}
	var out []*graph.Pattern
	for mask := 0; mask < 1<<len(pairs); mask++ {
		canon := mask
		for _, perm := range perms {
			m := 0
			for i, e := range pairs {
				if mask&(1<<i) != 0 {
					m |= 1 << pairIndex(k, perm[e[0]], perm[e[1]])
				}
			}
			canon = min(canon, m)
		}
		if seen[canon] {
			continue
		}
		seen[canon] = true
		if g := graph.FromEdges(k, edgesOf(pairs, mask)); g.IsConnected() {
			out = append(out, graph.MustPattern(fmt.Sprintf("c%d-%d", k, len(out)+1), k, g.EdgeList()))
		}
	}
	return out
}

// vertexPairs lists the pairs (i, j), i < j < k, in the order pairIndex
// numbers them.
func vertexPairs(k int) [][2]int64 {
	var pairs [][2]int64
	for i := int64(0); i < int64(k); i++ {
		for j := i + 1; j < int64(k); j++ {
			pairs = append(pairs, [2]int64{i, j})
		}
	}
	return pairs
}

// pairIndex is the position of the pair {u, v} in vertexPairs(k).
func pairIndex(k int, u, v int64) int {
	i, j := int(min(u, v)), int(max(u, v))
	return i*k - i*(i+1)/2 + j - i - 1
}

// edgesOf returns the pairs whose bit is set in mask.
func edgesOf(pairs [][2]int64, mask int) [][2]int64 {
	var edges [][2]int64
	for i, e := range pairs {
		if mask&(1<<i) != 0 {
			edges = append(edges, e)
		}
	}
	return edges
}

// permutations returns every permutation of 0..k-1.
func permutations(k int) [][]int64 {
	if k == 0 {
		return [][]int64{{}}
	}
	var out [][]int64
	for _, p := range permutations(k - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, slices.Insert(slices.Clone(p), at, int64(k-1)))
		}
	}
	return out
}
