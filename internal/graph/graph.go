// Package graph provides the core graph model used throughout BENU:
// undirected, unlabeled simple graphs with sorted adjacency sets, the
// degree-based total order on data vertices, pattern graphs with
// automorphism detection and symmetry breaking, and a brute-force
// reference enumerator used as ground truth in tests.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected, unlabeled simple graph over vertices 0..N-1.
// Adjacency sets are stored sorted in ascending vertex order, which the
// executor relies on for merge-based set intersection.
//
// A Graph is immutable after construction and safe for concurrent reads.
type Graph struct {
	adj    [][]int64
	m      int64
	labels []int64 // optional vertex labels (see labels.go); nil = unlabeled
	ids    []int64 // id in the input graph per vertex (see Relabel); nil = not relabelled
}

// NumVertices returns N = |V(G)|.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns M = |E(G)| counting each undirected edge once.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v int64) int { return len(g.adj[v]) }

// Adj returns the sorted adjacency set of v. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Adj(v int64) []int64 { return g.adj[v] }

// HasEdge reports whether (u, v) is an edge, using binary search over the
// smaller of the two adjacency sets.
func (g *Graph) HasEdge(u, v int64) bool {
	if u < 0 || v < 0 || int(u) >= len(g.adj) || int(v) >= len(g.adj) {
		return false
	}
	a := g.adj[u]
	if b := g.adj[v]; len(b) < len(a) {
		a, b = b, a
		u, v = v, u
	}
	return ContainsSorted(a, v)
}

// Edges calls fn once per undirected edge (u, v) with u < v. It stops early
// if fn returns false.
func (g *Graph) Edges(fn func(u, v int64) bool) {
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if int64(u) < v {
				if !fn(int64(u), v) {
					return
				}
			}
		}
	}
}

// EdgeList returns all edges as (u, v) pairs with u < v, sorted.
func (g *Graph) EdgeList() [][2]int64 {
	out := make([][2]int64, 0, g.m)
	g.Edges(func(u, v int64) bool {
		out = append(out, [2]int64{u, v})
		return true
	})
	return out
}

// MaxDegree returns the largest vertex degree in the graph (0 for an
// empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// SizeBytes returns the approximate in-memory size of all adjacency sets,
// counting 8 bytes per directed edge entry. This is the unit the DB cache
// capacity is measured against ("10% of the data graph" in Exp-3).
func (g *Graph) SizeBytes() int64 { return 2 * g.m * 8 }

// AdjCopy returns a copy of the adjacency set of v. Use when the caller
// needs to retain or mutate the set.
func (g *Graph) AdjCopy(v int64) []int64 {
	out := make([]int64, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are discarded, so the result is always a simple
// graph. The zero value is not usable; call NewBuilder.
type Builder struct {
	n   int
	src []int64
	dst []int64
}

// NewBuilder returns a Builder for a graph with at least n vertices. The
// vertex count grows automatically if AddEdge references a larger id.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge (u, v). Self-loops are ignored.
func (b *Builder) AddEdge(u, v int64) {
	if u == v || u < 0 || v < 0 {
		return
	}
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
}

// Build finalizes the graph: adjacency sets are sorted and deduplicated.
func (b *Builder) Build() *Graph {
	deg := make([]int, b.n)
	for i := range b.src {
		deg[b.src[i]]++
		deg[b.dst[i]]++
	}
	adj := make([][]int64, b.n)
	for v := range adj {
		adj[v] = make([]int64, 0, deg[v])
	}
	for i := range b.src {
		u, v := b.src[i], b.dst[i]
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	var m int64
	for v := range adj {
		a := adj[v]
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		// Deduplicate in place.
		w := 0
		for i := range a {
			if i == 0 || a[i] != a[i-1] {
				a[w] = a[i]
				w++
			}
		}
		adj[v] = a[:w]
		m += int64(w)
	}
	return &Graph{adj: adj, m: m / 2}
}

// FromEdges builds a graph with n vertices from an explicit edge list.
// It panics if an edge references a vertex outside [0, n): edge lists in
// this codebase are either generated (trusted) or validated on load.
func FromEdges(n int, edges [][2]int64) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		if int(e[0]) >= n || int(e[1]) >= n {
			//benulint:panicok FromEdges takes trusted in-process edge lists, never wire bytes; io.go validates on load
			panic(fmt.Sprintf("graph: edge (%d,%d) outside vertex range [0,%d)", e[0], e[1], n))
		}
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	if g.NumVertices() < n {
		// Preserve requested vertex count even if trailing vertices are isolated.
		for len(g.adj) < n {
			g.adj = append(g.adj, nil)
		}
	}
	return g
}

// InducedSubgraph returns the subgraph of g induced on vs, relabeled to
// 0..len(vs)-1 in the order given, plus the mapping from new ids back to
// original ids.
func (g *Graph) InducedSubgraph(vs []int64) (*Graph, []int64) {
	idx := make(map[int64]int64, len(vs))
	for i, v := range vs {
		idx[v] = int64(i)
	}
	b := NewBuilder(len(vs))
	for i, v := range vs {
		for _, w := range g.adj[v] {
			if j, ok := idx[w]; ok && int64(i) < j {
				b.AddEdge(int64(i), j)
			}
		}
	}
	sub := b.Build()
	for sub.NumVertices() < len(vs) {
		sub.adj = append(sub.adj, nil)
	}
	back := make([]int64, len(vs))
	copy(back, vs)
	return sub, back
}

// ConnectedComponents returns the vertex sets of the connected components
// of g, each sorted ascending, ordered by their smallest vertex.
func (g *Graph) ConnectedComponents() [][]int64 {
	n := g.NumVertices()
	seen := make([]bool, n)
	var comps [][]int64
	queue := make([]int64, 0, n)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], int64(s))
		comp := []int64{int64(s)}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.adj[v] {
				if !seen[w] {
					seen[w] = true
					comp = append(comp, w)
					queue = append(queue, w)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g is connected (the empty graph counts as
// connected).
func (g *Graph) IsConnected() bool {
	if g.NumVertices() == 0 {
		return true
	}
	return len(g.ConnectedComponents()) == 1
}

// Eccentricity returns the eccentricity of v: the maximum BFS distance from
// v to any reachable vertex.
func (g *Graph) Eccentricity(v int64) int {
	n := g.NumVertices()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := []int64{v}
	ecc := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				if dist[w] > ecc {
					ecc = dist[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return ecc
}

// Radius returns min over vertices of eccentricity. The paper bounds the
// local neighborhood a search task visits by the pattern radius (§V-A).
func (g *Graph) Radius() int {
	if g.NumVertices() == 0 {
		return 0
	}
	r := g.Eccentricity(0)
	for v := 1; v < g.NumVertices(); v++ {
		if e := g.Eccentricity(int64(v)); e < r {
			r = e
		}
	}
	return r
}

// DegreeHistogram returns a map from degree to the number of vertices with
// that degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, a := range g.adj {
		h[len(a)]++
	}
	return h
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{N=%d, M=%d}", g.NumVertices(), g.NumEdges())
}
