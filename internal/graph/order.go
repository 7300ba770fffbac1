package graph

import (
	"fmt"
	"sort"
)

// TotalOrder is the total order ≺ on data vertices required by the
// symmetry-breaking technique. Following SEED (and §II-A of the paper),
// v ≺ w iff d(v) < d(w), or d(v) == d(w) and id(v) < id(w).
//
// The order is materialized as a rank array so that comparing two vertices
// is two array loads and an integer compare — Less(v, w) reads rank[v] and
// rank[w] — which the executor performs inside the hottest filter loops.
// Both ids index the array unchecked: adjacency bytes from a wire or a
// file are bounded to [0, Len) where they enter (AdjList.ValidateIn).
type TotalOrder struct {
	rank []int64
}

// NewTotalOrder computes the (degree, id) total order for g.
func NewTotalOrder(g *Graph) *TotalOrder {
	n := g.NumVertices()
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	sort.Slice(perm, func(i, j int) bool {
		di, dj := g.Degree(perm[i]), g.Degree(perm[j])
		if di != dj {
			return di < dj
		}
		return perm[i] < perm[j]
	})
	rank := make([]int64, n)
	for r, v := range perm {
		rank[v] = int64(r)
	}
	return &TotalOrder{rank: rank}
}

// IdentityOrder returns the trivial order where v ≺ w iff id(v) < id(w).
// Useful in tests where a predictable order is convenient.
func IdentityOrder(n int) *TotalOrder {
	rank := make([]int64, n)
	for i := range rank {
		rank[i] = int64(i)
	}
	return &TotalOrder{rank: rank}
}

// Ranks exposes the materialized rank array, indexed by vertex id, so
// the order can be shipped to remote workers (the control plane's
// JoinReply). The slice is shared with the order — treat it as
// immutable.
func (o *TotalOrder) Ranks() []int64 { return o.rank }

// OrderFromRanks reconstructs a TotalOrder from a rank array received
// over the wire. The payload crosses a trust boundary, so it is
// validated to be a permutation of [0, len) instead of trusted: a
// malformed array would otherwise index out of bounds inside the
// executor's hottest filter loops.
func OrderFromRanks(rank []int64) (*TotalOrder, error) {
	seen := make([]bool, len(rank))
	for _, r := range rank {
		if r < 0 || r >= int64(len(rank)) || seen[r] {
			return nil, fmt.Errorf("graph: rank array of %d entries is not a permutation", len(rank))
		}
		seen[r] = true
	}
	return &TotalOrder{rank: append([]int64(nil), rank...)}, nil
}

// Less reports whether v ≺ w.
func (o *TotalOrder) Less(v, w int64) bool { return o.rank[v] < o.rank[w] }

// Rank returns the position of v in the total order (0 = smallest).
func (o *TotalOrder) Rank(v int64) int64 { return o.rank[v] }

// Len returns the number of ordered vertices.
func (o *TotalOrder) Len() int { return len(o.rank) }
