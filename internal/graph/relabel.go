package graph

import "slices"

// Relabel returns a copy of g whose ids follow ≺: vertex v of g becomes
// vertex NewTotalOrder(g).Rank(v), labels carried along. On the result
// ≺ = (degree, id) is < on ids, so NewTotalOrder returns the identity —
// GraphZero's orientation, done once where a graph enters the system:
// hubs take the top ids, and "neighbours above v" is a short suffix of
// every list. The result remembers each vertex's id in g (InputID), so
// output can be reported in the ids the graph was loaded with.
func Relabel(g *Graph) *Graph {
	ord := NewTotalOrder(g)
	n := ord.Len()
	old := make([]int64, n) // new id → id in g
	rank := make([]int64, n)
	for v := range rank {
		rank[v] = ord.Rank(int64(v))
		old[rank[v]] = int64(v)
	}
	flat := make([]int64, 0, 2*g.m)
	h := &Graph{adj: make([][]int64, n), m: g.m, ids: make([]int64, n)}
	for r, v := range old {
		start := len(flat)
		for _, w := range g.adj[v] {
			flat = append(flat, rank[w])
		}
		h.adj[r] = flat[start:len(flat):len(flat)]
		slices.Sort(h.adj[r])
		h.ids[r] = g.InputID(v)
	}
	if g.labels != nil {
		h.labels = make([]int64, n)
		for r, v := range old {
			h.labels[r] = g.labels[v]
		}
	}
	return h
}

// InputID returns the id v had in the graph Relabel renamed (v itself
// for a graph that was never relabelled).
func (g *Graph) InputID(v int64) int64 {
	if g.ids == nil {
		return v
	}
	return g.ids[v]
}

// InputOrder returns ≺ of the graph as it was loaded: for a relabelled
// graph, the order whose ranks are the relabel map (input id → id here),
// under which a stream reported in input ids compares; otherwise
// NewTotalOrder(g).
func (g *Graph) InputOrder() *TotalOrder {
	if g.ids == nil {
		return NewTotalOrder(g)
	}
	rank := make([]int64, len(g.ids))
	for v, in := range g.ids {
		rank[in] = int64(v)
	}
	o, _ := OrderFromRanks(rank) // a permutation by construction
	return o
}

// DegreeOrdered reports whether degrees never decrease with the id, so
// that ≺ = (degree, id) is < on ids.
func (g *Graph) DegreeOrdered() bool {
	for v := 1; v < len(g.adj); v++ {
		if len(g.adj[v]) < len(g.adj[v-1]) {
			return false
		}
	}
	return true
}
