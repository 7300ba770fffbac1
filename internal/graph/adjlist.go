package graph

import (
	"fmt"
	"sync"

	"benu/internal/varint"
)

// AdjList is the compact adjacency representation used as the single
// currency of the adjacency data plane: the KV wire format, the DB cache
// entries, and the executor's DBQ results all carry the same bytes.
//
// Layout: uvarint neighbor count, then the first neighbor id as a
// uvarint, then each subsequent neighbor as a uvarint delta to its
// predecessor. Adjacency sets are sorted ascending and duplicate-free,
// so deltas are small and the encoding typically lands at 1-2 bytes per
// neighbor instead of the 8 bytes of a raw int64 — the "bytes saved"
// counter of the data plane measures exactly this gap.
//
// An AdjList is immutable after construction and safe for concurrent
// use; decoding is lazy (Len peeks only at the header, AppendDecoded and
// IntersectSorted stream through the bytes on demand).
type AdjList struct {
	b []byte
}

// EncodeAdjList encodes a sorted, duplicate-free adjacency set. The
// input slice is not retained.
func EncodeAdjList(adj []int64) AdjList {
	b := make([]byte, 0, 1+len(adj)*2) // typical: small deltas
	b = varint.Append(b, uint64(len(adj)))
	prev := int64(0)
	for i, v := range adj {
		if i == 0 {
			b = varint.Append(b, uint64(v))
		} else {
			b = varint.Append(b, uint64(v-prev))
		}
		prev = v
	}
	return AdjList{b: b}
}

// AdjListFromBytes wraps an encoded adjacency list without copying or
// validating. Use Validate (or any decoding method, which fail on
// malformed input) before trusting bytes from the network.
func AdjListFromBytes(b []byte) AdjList { return AdjList{b: b} }

// Bytes returns the encoded form. The caller must not modify it.
func (l AdjList) Bytes() []byte { return l.b }

// IsZero reports whether l is the zero AdjList (no encoding at all — an
// encoded empty set is one byte and not zero).
func (l AdjList) IsZero() bool { return l.b == nil }

// SizeBytes returns the encoded size — the unit cache capacity and wire
// accounting are charged in for compact entries.
func (l AdjList) SizeBytes() int64 { return int64(len(l.b)) }

// Len returns the neighbor count claimed by the header (0 when the
// header is missing or malformed; decoding methods report the error).
func (l AdjList) Len() int {
	n, _, err := varint.Uvarint(l.b)
	if err != nil {
		return 0
	}
	return int(n)
}

// fastUvarint decodes a 1- or 2-byte unsigned varint from the front of
// b, returning 0 consumed bytes when the encoding is wider (or b too
// short) — the caller then falls back to varint.Uvarint. It exists so
// the decode loops below keep the overwhelmingly common case (small
// sorted-set deltas) inlined, with one branch per byte width and no
// error-path work.
func fastUvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	if len(b) > 1 && b[1] < 0x80 {
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, 2
	}
	return 0, 0
}

// AppendDecoded appends the decoded neighbor ids to dst and returns it.
// It fails on truncated or overflowing varints without over-allocating:
// the claimed count only caps the initial reservation, growth is
// append-driven, so a hostile header cannot force a huge allocation.
func (l AdjList) AppendDecoded(dst []int64) ([]int64, error) {
	b := l.b
	n, k, err := varint.Uvarint(b)
	if err != nil {
		return dst, fmt.Errorf("graph: adjlist header: %w", err)
	}
	b = b[k:]
	if cap(dst)-len(dst) < int(min64u(n, 4096)) {
		grown := make([]int64, len(dst), len(dst)+int(min64u(n, 4096)))
		copy(grown, dst)
		dst = grown
	}
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		x, k := fastUvarint(b)
		if k == 0 {
			var err error
			x, k, err = varint.Uvarint(b)
			if err != nil {
				return dst, adjEntryErr(i, n, err)
			}
		}
		b = b[k:]
		if i == 0 {
			prev = int64(x)
		} else {
			prev += int64(x)
		}
		dst = append(dst, prev)
	}
	return dst, nil
}

// Decode materializes the neighbor ids into a fresh slice.
func (l AdjList) Decode() ([]int64, error) { return l.AppendDecoded(nil) }

// Validate walks the encoding and reports whether it is well-formed:
// header present, exactly the claimed number of entries, no trailing
// bytes, ids strictly increasing (the sorted duplicate-free invariant
// every Store promises). It does not bound the ids; bytes that cross a
// trust boundary into an executor need ValidateIn.
func (l AdjList) Validate() error {
	_, err := l.validate()
	return err
}

// ValidateIn is Validate plus the domain check: every id is a vertex of
// a graph of numVertices vertices. Ids are strictly increasing, so that
// is one comparison on the last — and it is what keeps a store's bytes
// from indexing past the rank array in the executor's ≺ filters.
func (l AdjList) ValidateIn(numVertices int) error {
	last, err := l.validate()
	if err != nil {
		return err
	}
	if last >= int64(numVertices) {
		return fmt.Errorf("graph: adjlist id %d outside [0,%d)", last, numVertices)
	}
	return nil
}

// validate is the walk behind Validate; it returns the last (largest)
// id, -1 for an empty list.
func (l AdjList) validate() (int64, error) {
	b := l.b
	n, k, err := varint.Uvarint(b)
	if err != nil {
		return 0, fmt.Errorf("graph: adjlist header: %w", err)
	}
	b = b[k:]
	prev := int64(-1)
	for i := uint64(0); i < n; i++ {
		x, k, err := varint.Uvarint(b)
		if err != nil {
			return 0, adjEntryErr(i, n, err)
		}
		b = b[k:]
		var v int64
		if i == 0 {
			v = int64(x)
		} else {
			v = prev + int64(x)
			if int64(x) == 0 {
				return 0, fmt.Errorf("graph: adjlist entry %d duplicates its predecessor", i)
			}
		}
		if v < 0 {
			return 0, fmt.Errorf("graph: adjlist entry %d is negative (%d)", i, v)
		}
		prev = v
	}
	if len(b) != 0 {
		return 0, fmt.Errorf("graph: adjlist has %d trailing bytes", len(b))
	}
	return prev, nil
}

// GallopRatio is the size skew beyond which an intersection gallops the
// short side through the long one instead of touching every element of
// both — one break-even for the materialized merge (sets.go), the encoded
// merge below, and the executor's choice between a bitset probe of the
// long side and a gallop through it.
const GallopRatio = 16

// IntersectSorted intersects l with the ascending-sorted set other,
// appending matches to dst — a streaming pass over the compact bytes,
// no intermediate decode. It fails on malformed encodings.
//
// The pass is a linear merge, except when other is at least
// GallopRatio times larger than l's claimed length: then each
// decoded id gallops (exponential probe + binary search) through other
// instead of scanning it, which matters when a short adjacency set
// meets the hub-sized candidate sets of power-law graphs. Both sides
// early-exit: the byte walk stops as soon as other is exhausted.
func (l AdjList) IntersectSorted(dst []int64, other []int64) ([]int64, error) {
	b := l.b
	n, k, err := varint.Uvarint(b)
	if err != nil {
		return dst, fmt.Errorf("graph: adjlist header: %w", err)
	}
	b = b[k:]
	gallop := uint64(len(other)) >= GallopRatio*n
	j := 0
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		x, k := fastUvarint(b)
		if k == 0 {
			var err error
			x, k, err = varint.Uvarint(b)
			if err != nil {
				return dst, adjEntryErr(i, n, err)
			}
		}
		b = b[k:]
		if i == 0 {
			prev = int64(x)
		} else {
			prev += int64(x)
		}
		if gallop {
			j = gallopTo(other, j, prev)
		} else {
			for j < len(other) && other[j] < prev {
				j++
			}
		}
		if j == len(other) {
			break
		}
		if other[j] == prev {
			dst = append(dst, prev)
			j++
		}
	}
	return dst, nil
}

// gallopTo returns the first index i ≥ lo with a[i] >= x, probing
// exponentially from lo and binary-searching the final window — O(log d)
// in the distance d advanced rather than O(d).
func gallopTo(a []int64, lo int, x int64) int {
	step := 1
	hi := lo
	for hi < len(a) && a[hi] < x {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntersectAdjLists intersects two encoded adjacency lists by merging
// their delta streams directly — neither side is materialized. The walk
// stops as soon as either stream is exhausted, so the cost is bounded
// by the shorter list's byte length plus the matched prefix of the
// longer one. It fails on malformed encodings.
//
// The merge keeps its decode state in locals (not an AdjCursor) so the
// per-element step is fully inlined; this is the INT fast path of the
// compact data plane when both operands are still encoded.
func IntersectAdjLists(dst []int64, a, b AdjList) ([]int64, error) {
	ba, ka, err := a.header()
	if err != nil {
		return dst, err
	}
	bb, kb, err := b.header()
	if err != nil {
		return dst, err
	}
	if ka == 0 || kb == 0 {
		return dst, nil
	}
	va, ba, err := adjStep(ba, 0, true)
	if err != nil {
		return dst, err
	}
	vb, bb, err := adjStep(bb, 0, true)
	if err != nil {
		return dst, err
	}
	for {
		switch {
		case va < vb:
			if ka--; ka == 0 {
				return dst, nil
			}
			if va, ba, err = adjStep(ba, va, false); err != nil {
				return dst, err
			}
		case va > vb:
			if kb--; kb == 0 {
				return dst, nil
			}
			if vb, bb, err = adjStep(bb, vb, false); err != nil {
				return dst, err
			}
		default:
			dst = append(dst, va)
			ka--
			kb--
			if ka == 0 || kb == 0 {
				return dst, nil
			}
			if va, ba, err = adjStep(ba, va, false); err != nil {
				return dst, err
			}
			if vb, bb, err = adjStep(bb, vb, false); err != nil {
				return dst, err
			}
		}
	}
}

// header decodes l's neighbor count and returns the entry bytes.
func (l AdjList) header() ([]byte, uint64, error) {
	n, k, err := varint.Uvarint(l.b)
	if err != nil {
		return nil, 0, fmt.Errorf("graph: adjlist header: %w", err)
	}
	return l.b[k:], n, nil
}

// adjStep decodes one entry varint from b and applies delta decoding
// against prev (first marks the absolute first entry). It returns the
// decoded id and the remaining bytes. The 1-/2-byte fast path keeps the
// whole step inlinable; wider varints and errors drop to adjStepSlow.
func adjStep(b []byte, prev int64, first bool) (int64, []byte, error) {
	x, k := fastUvarint(b)
	if k == 0 {
		return adjStepSlow(b, prev, first)
	}
	if first {
		return int64(x), b[k:], nil
	}
	return prev + int64(x), b[k:], nil
}

// adjStepSlow is adjStep's out-of-line general case.
func adjStepSlow(b []byte, prev int64, first bool) (int64, []byte, error) {
	x, k, err := varint.Uvarint(b)
	if err != nil {
		return 0, b, fmt.Errorf("graph: adjlist entry: %w", err)
	}
	if first {
		return int64(x), b[k:], nil
	}
	return prev + int64(x), b[k:], nil
}

// adjEntryErr is the malformed-entry error of every decode loop, built
// out of line so the boxing of its arguments stays off the annotated
// ones.
func adjEntryErr(i, n uint64, err error) error {
	return fmt.Errorf("graph: adjlist entry %d/%d: %w", i, n, err)
}

// AdjCursor streams the neighbor ids of an encoded AdjList one at a
// time, without materializing the set. The zero value is an exhausted
// cursor; obtain a live one with AdjList.Cursor. After Next returns
// false, Err distinguishes normal exhaustion (nil) from a malformed
// encoding.
type AdjCursor struct {
	b     []byte
	rem   uint64
	prev  int64
	first bool
	err   error
}

// Cursor returns a cursor over l's neighbor ids. A malformed header
// surfaces on the first Next (false, with Err set).
func (l AdjList) Cursor() AdjCursor {
	n, k, err := varint.Uvarint(l.b)
	if err != nil {
		return AdjCursor{err: fmt.Errorf("graph: adjlist header: %w", err)}
	}
	return AdjCursor{b: l.b[k:], rem: n, first: true}
}

// Next returns the next neighbor id. It returns ok == false when the
// list is exhausted or the encoding is malformed (see Err).
func (c *AdjCursor) Next() (int64, bool) {
	if c.rem == 0 || c.err != nil {
		return 0, false
	}
	x, k := fastUvarint(c.b)
	if k == 0 {
		var err error
		x, k, err = varint.Uvarint(c.b)
		if err != nil {
			c.err = fmt.Errorf("graph: adjlist entry: %w", err)
			return 0, false
		}
	}
	c.b = c.b[k:]
	c.rem--
	if c.first {
		c.prev = int64(x)
		c.first = false
	} else {
		c.prev += int64(x)
	}
	return c.prev, true
}

// Remaining returns the number of ids Next has yet to yield (per the
// header's claim; a truncated encoding ends earlier, with Err set).
func (c *AdjCursor) Remaining() int { return int(c.rem) }

// Err returns the malformed-encoding error that stopped the cursor, or
// nil after a clean walk.
func (c *AdjCursor) Err() error { return c.err }

func min64u(a uint64, b int) uint64 {
	if a < uint64(b) {
		return a
	}
	return uint64(b)
}

// CompactAdjacency is the whole-graph compact adjacency index: every
// vertex's AdjList sliced out of one contiguous buffer. In-process
// stores build it lazily (the graph is immutable) so batched compact
// reads are zero-copy slices rather than per-query encodes.
type CompactAdjacency struct {
	off  []int64
	data []byte
}

// NewCompactAdjacency encodes every adjacency set of g.
func NewCompactAdjacency(g *Graph) *CompactAdjacency {
	n := g.NumVertices()
	c := &CompactAdjacency{off: make([]int64, n+1)}
	// Two passes would need encoded sizes anyway; append once instead.
	for v := 0; v < n; v++ {
		adj := g.Adj(int64(v))
		c.data = varint.Append(c.data, uint64(len(adj)))
		prev := int64(0)
		for i, w := range adj {
			if i == 0 {
				c.data = varint.Append(c.data, uint64(w))
			} else {
				c.data = varint.Append(c.data, uint64(w-prev))
			}
			prev = w
		}
		c.off[v+1] = int64(len(c.data))
	}
	return c
}

// NumVertices returns the number of vertices indexed.
func (c *CompactAdjacency) NumVertices() int { return len(c.off) - 1 }

// List returns the compact adjacency list of v (zero-copy).
func (c *CompactAdjacency) List(v int64) AdjList {
	return AdjList{b: c.data[c.off[v]:c.off[v+1]:c.off[v+1]]}
}

// SizeBytes returns the total encoded size — compare against
// Graph.SizeBytes (8 bytes per directed edge) for the compression ratio.
func (c *CompactAdjacency) SizeBytes() int64 { return int64(len(c.data)) }

// intsPool recycles the scratch id slices of the data plane: prefetch
// batches copy candidate sets through here, and decode temporaries
// borrow from it, so steady-state prefetching allocates nothing.
var intsPool = sync.Pool{New: func() any { s := make([]int64, 0, 256); return &s }}

// BorrowInts borrows a reusable empty []int64 from the pool.
func BorrowInts() *[]int64 {
	p := intsPool.Get().(*[]int64)
	*p = (*p)[:0]
	return p
}

// ReturnInts returns a slice borrowed with BorrowInts to the pool. The
// caller must not use *p afterwards.
func ReturnInts(p *[]int64) { intsPool.Put(p) }
