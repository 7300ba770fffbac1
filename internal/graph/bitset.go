package graph

import "benu/internal/varint"

// Bitset is a set of vertex ids held as one bit per id of V(G). The
// executor keeps one as a mirror of every set register that a deeper
// intersection reads once per enumeration candidate while the register
// itself stays fixed: testing each id of the per-candidate list against
// the mirror costs one bit test per element of that list alone, where
// the merge of IntersectSorted walks both lists.
//
// An id outside [0, 64·len(b)) is never a member: Add and Remove skip
// it and the probes drop it, so a list that reached the executor without
// crossing a validating boundary cannot index out of range here.
type Bitset []uint64

// NewBitset returns an empty set able to hold the ids of [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Has reports whether v is a member.
func (b Bitset) Has(v int64) bool {
	w := uint64(v) >> 6
	return w < uint64(len(b)) && b[w]&(1<<(uint64(v)&63)) != 0
}

// Add makes every id of vs a member.
//
//benulint:hotpath runs once per definition of a mirrored register
func (b Bitset) Add(vs []int64) {
	for _, v := range vs {
		if w := uint64(v) >> 6; w < uint64(len(b)) {
			b[w] |= 1 << (uint64(v) & 63)
		}
	}
}

// Remove makes every id of vs a non-member. Removing exactly the ids
// added costs O(len(vs)) — not O(|V|/64) — which is what lets a mirror
// follow a short register on a large graph.
//
//benulint:hotpath runs once per redefinition of a mirrored register
func (b Bitset) Remove(vs []int64) {
	for _, v := range vs {
		if w := uint64(v) >> 6; w < uint64(len(b)) {
			b[w] &^= 1 << (uint64(v) & 63)
		}
	}
}

// AppendMembers appends the ids of list that are members of b to dst, in
// list order — so an ascending list yields the ascending intersection
// IntersectSorted would.
//
//benulint:hotpath the per-candidate INT of every hoisted intersection
func (b Bitset) AppendMembers(dst, list []int64) []int64 {
	for _, v := range list {
		if b.Has(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// AppendMembers appends the ids of l that are members of b to dst: the
// streaming twin of Bitset.AppendMembers for the compact read path. Each
// delta is decoded, its bit tested, and the list is never materialized.
// It fails on malformed encodings.
//
//benulint:hotpath the per-candidate INT of a hoisted intersection over an encoded list
func (l AdjList) AppendMembers(dst []int64, b Bitset) ([]int64, error) {
	p, n, err := l.header()
	if err != nil {
		return dst, err
	}
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		x, k := fastUvarint(p)
		if k == 0 {
			x, k, err = varint.Uvarint(p)
			if err != nil {
				return dst, adjEntryErr(i, n, err)
			}
		}
		p = p[k:]
		prev += int64(x) // the first entry is a delta to 0
		if b.Has(prev) {
			dst = append(dst, prev)
		}
	}
	return dst, nil
}
