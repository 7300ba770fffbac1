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
//
// An order records whether it is the identity (Identity): then ≺ is < on
// ids, no array is kept, and the executor applies symmetry-breaking
// filters as bounds on its sorted lists instead of per-element rank
// lookups. That is the order of every graph whose ids follow ≺, such as
// one renamed by Relabel.
type TotalOrder struct {
	rank []int64 // nil for the identity order
	n    int
	// key is what Fingerprint hashes when it is not rank: the relabel
	// map of a relabelled graph's identity order.
	key []int64
}

// NewTotalOrder computes the (degree, id) total order for g. When g's
// degrees never decrease with the id — a graph renamed by Relabel, for
// one — the order is the identity, and it is found without sorting.
func NewTotalOrder(g *Graph) *TotalOrder {
	n := g.NumVertices()
	if g.DegreeOrdered() {
		o := IdentityOrder(n)
		o.key = g.ids
		return o
	}
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
	return &TotalOrder{rank: rank, n: n}
}

// IdentityOrder returns the order over n vertices where v ≺ w iff
// id(v) < id(w). It keeps no rank array.
func IdentityOrder(n int) *TotalOrder {
	return &TotalOrder{n: n}
}

// Ranks exposes the materialized rank array, indexed by vertex id, so
// the order can be shipped to remote workers (the control plane's
// JoinReply); nil for the identity order. The slice is shared with the
// order — treat it as immutable.
func (o *TotalOrder) Ranks() []int64 { return o.rank }

// OrderFromRanks reconstructs a TotalOrder from a rank array received
// over the wire. The payload crosses a trust boundary, so it is
// validated to be a permutation of [0, len) instead of trusted: a
// malformed array would otherwise index out of bounds inside the
// executor's hottest filter loops.
func OrderFromRanks(rank []int64) (*TotalOrder, error) {
	seen := make([]bool, len(rank))
	identity := true
	for i, r := range rank {
		if r < 0 || r >= int64(len(rank)) || seen[r] {
			return nil, fmt.Errorf("graph: rank array of %d entries is not a permutation", len(rank))
		}
		seen[r] = true
		identity = identity && r == int64(i)
	}
	if identity {
		return IdentityOrder(len(rank)), nil
	}
	return &TotalOrder{rank: append([]int64(nil), rank...), n: len(rank)}, nil
}

// Less reports whether v ≺ w.
func (o *TotalOrder) Less(v, w int64) bool {
	if o.rank == nil {
		return v < w
	}
	return o.rank[v] < o.rank[w]
}

// Rank returns the position of v in the total order (0 = smallest).
func (o *TotalOrder) Rank(v int64) int64 {
	if o.rank == nil {
		return v
	}
	return o.rank[v]
}

// Len returns the number of ordered vertices.
func (o *TotalOrder) Len() int { return o.n }

// Identity reports whether v ≺ w iff v < w for all vertices. A nil order
// is not the identity.
func (o *TotalOrder) Identity() bool { return o != nil && o.rank == nil }

// Fingerprint hashes the order for durable state that must not outlive
// its graph (FNV-1a). It covers the rank array, or — for the identity
// order of a relabelled graph, whose ranks say nothing about the graph —
// the relabel map (InputID per vertex), the inverse of the input graph's
// ranks.
func (o *TotalOrder) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	key := o.rank
	if o.key != nil {
		key = o.key
	}
	h := uint64(offset)
	for v := 0; v < o.n; v++ {
		r := int64(v)
		if key != nil {
			r = key[v]
		}
		for shift := 0; shift < 64; shift += 8 {
			h ^= uint64(byte(uint64(r) >> shift))
			h *= prime
		}
	}
	return h
}
