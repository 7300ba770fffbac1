package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// randSortedSet builds a sorted duplicate-free id set — the invariant
// every Store promises for adjacency data.
func randSortedSet(rng *rand.Rand, n int, span int64) []int64 {
	if int64(n) > span/2 {
		n = int(span / 2) // keep the rejection sampling below terminating
	}
	seen := make(map[int64]struct{}, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		v := rng.Int63n(span)
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	// insertion sort; n is small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestAdjListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := [][]int64{
		nil,
		{},
		{0},
		{7},
		{0, 1, 2, 3},
		{5, 1000, 1 << 40, 1<<62 - 1},
	}
	for i := 0; i < 200; i++ {
		span := int64(1) << uint(4+rng.Intn(40))
		cases = append(cases, randSortedSet(rng, rng.Intn(64), span))
	}
	for _, adj := range cases {
		l := EncodeAdjList(adj)
		if err := l.Validate(); err != nil {
			t.Fatalf("Validate(%v): %v", adj, err)
		}
		if l.Len() != len(adj) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(adj))
		}
		got, err := l.Decode()
		if err != nil {
			t.Fatalf("Decode(%v): %v", adj, err)
		}
		if len(got) != len(adj) {
			t.Fatalf("round trip: %v -> %v", adj, got)
		}
		for j := range adj {
			if got[j] != adj[j] {
				t.Fatalf("round trip: %v -> %v", adj, got)
			}
		}
		if len(adj) > 0 && l.SizeBytes() > int64(len(adj))*10+1 {
			t.Fatalf("encoding of %d entries took %d bytes", len(adj), l.SizeBytes())
		}
	}
}

func TestAdjListAppendDecodedAppends(t *testing.T) {
	l := EncodeAdjList([]int64{10, 20, 30})
	dst := []int64{1, 2}
	dst, err := l.AppendDecoded(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst, []int64{1, 2, 10, 20, 30}) {
		t.Errorf("dst = %v", dst)
	}
}

func TestAdjListValidateRejectsCorrupt(t *testing.T) {
	good := EncodeAdjList([]int64{3, 7, 12, 400}).Bytes()
	cases := map[string][]byte{
		"empty-nonzero-count": {5},                // claims 5 entries, has none
		"truncated-entry":     good[:len(good)-1], // last varint cut short
		"trailing-bytes":      append(append([]byte{}, good...), 0x01),
		"duplicate":           {2, 4, 0}, // second delta 0 → duplicate
		"unterminated-varint": {1, 0x80}, // continuation bit, no next byte
	}
	for name, b := range cases {
		if err := AdjListFromBytes(b).Validate(); err == nil {
			t.Errorf("%s: corrupt encoding accepted", name)
		}
	}
	if err := AdjListFromBytes(good).Validate(); err != nil {
		t.Errorf("control: %v", err)
	}
}

// intersectRef is the obvious two-pointer merge over decoded slices.
func intersectRef(a, b []int64) []int64 {
	out := []int64{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func TestAdjListIntersectSortedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		span := int64(64 + rng.Intn(4000))
		a := randSortedSet(rng, rng.Intn(48), span)
		b := randSortedSet(rng, rng.Intn(48), span)
		l := EncodeAdjList(a)
		got, err := l.IntersectSorted(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		want := intersectRef(a, b)
		if len(got) != len(want) {
			t.Fatalf("case %d: |got| = %d, |want| = %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, want)
			}
		}
	}
}

func TestCompactAdjacencyMatchesGraph(t *testing.T) {
	g := FromEdges(4, [][2]int64{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	c := NewCompactAdjacency(g)
	if c.NumVertices() != g.NumVertices() {
		t.Fatalf("NumVertices = %d", c.NumVertices())
	}
	for v := int64(0); v < int64(g.NumVertices()); v++ {
		l := c.List(v)
		if err := l.Validate(); err != nil {
			t.Fatalf("List(%d): %v", v, err)
		}
		adj, err := l.Decode()
		if err != nil {
			t.Fatal(err)
		}
		want := g.Adj(v)
		if len(adj) != len(want) {
			t.Fatalf("List(%d): %v, want %v", v, adj, want)
		}
		for j := range want {
			if adj[j] != want[j] {
				t.Fatalf("List(%d): %v, want %v", v, adj, want)
			}
		}
	}
	if c.SizeBytes() >= g.SizeBytes() {
		t.Errorf("compact index (%d bytes) is not smaller than raw (%d bytes)",
			c.SizeBytes(), g.SizeBytes())
	}
}

// FuzzAdjListDecode throws arbitrary bytes at the codec. The contract:
// nothing panics, and any encoding Validate accepts must decode cleanly
// into exactly Len() strictly-increasing non-negative ids. Re-encoding is
// deliberately NOT compared byte-for-byte — the decoder tolerates
// non-minimal varints, which a fresh encode would normalize.
func FuzzAdjListDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(EncodeAdjList([]int64{1, 2, 3}).Bytes())
	f.Add(EncodeAdjList([]int64{0, 1 << 40}).Bytes())
	f.Add([]byte{5})          // claimed entries missing
	f.Add([]byte{1, 0x80})    // unterminated varint
	f.Add([]byte{2, 4, 0})    // duplicate via zero delta
	f.Add([]byte{1, 3, 9, 9}) // trailing bytes

	// Seeds pinning the decoder's 1-/2-byte fast-path seams: deltas at
	// 127/128 (1→2 bytes), 16383/16384 (2→3 bytes), and a 2-byte varint
	// cut off after its continuation byte.
	f.Add(EncodeAdjList([]int64{0, 127, 254}).Bytes())
	f.Add(EncodeAdjList([]int64{0, 128, 256}).Bytes())
	f.Add(EncodeAdjList([]int64{0, 16383, 32766}).Bytes())
	f.Add(EncodeAdjList([]int64{0, 16384, 32768}).Bytes())
	f.Add([]byte{2, 0x80}) // 2-byte fast path candidate, truncated

	f.Fuzz(func(t *testing.T, b []byte) {
		l := AdjListFromBytes(b)
		verr := l.Validate()
		adj, derr := l.Decode()
		if verr != nil {
			return // rejected input: decode may or may not error, but must not panic
		}
		if derr != nil {
			t.Fatalf("Validate accepted but Decode failed: %v", derr)
		}
		if len(adj) != l.Len() {
			t.Fatalf("decoded %d entries, header claims %d", len(adj), l.Len())
		}
		for i, v := range adj {
			if v < 0 {
				t.Fatalf("entry %d negative: %d", i, v)
			}
			if i > 0 && adj[i-1] >= v {
				t.Fatalf("entries not strictly increasing: %v", adj)
			}
		}
		// IntersectSorted over a valid encoding must agree with the
		// decoded merge.
		got, err := l.IntersectSorted(nil, adj)
		if err != nil {
			t.Fatalf("IntersectSorted on valid encoding: %v", err)
		}
		if len(got) != len(adj) {
			t.Fatalf("self-intersection lost entries: %d of %d", len(got), len(adj))
		}
		// So must the encoded×encoded merge and the cursor walk.
		got, err = IntersectAdjLists(nil, l, l)
		if err != nil {
			t.Fatalf("IntersectAdjLists on valid encoding: %v", err)
		}
		if len(got) != len(adj) {
			t.Fatalf("encoded self-intersection lost entries: %d of %d", len(got), len(adj))
		}
		c := l.Cursor()
		for i := 0; ; i++ {
			v, ok := c.Next()
			if !ok {
				if err := c.Err(); err != nil {
					t.Fatalf("cursor failed on valid encoding: %v", err)
				}
				if i != len(adj) {
					t.Fatalf("cursor yielded %d ids, decode %d", i, len(adj))
				}
				break
			}
			if v != adj[i] {
				t.Fatalf("cursor id %d = %d, decode says %d", i, v, adj[i])
			}
		}
		// The streaming probe against a bitset that mirrors every other
		// id and ends below the largest one (half its range, at most
		// 4096 ids) must equal decode-then-filter.
		if len(adj) == 0 {
			return
		}
		nbits := int(adj[len(adj)-1]/2) & 4095
		bits := NewBitset(nbits)
		var marked []int64
		for i := 0; i < len(adj); i += 2 {
			marked = append(marked, adj[i])
		}
		bits.Add(marked)
		want := []int64{}
		for i := 0; i < len(adj); i += 2 {
			if uint64(adj[i]) < uint64(64*len(bits)) {
				want = append(want, adj[i])
			}
		}
		if got, err = l.AppendMembers([]int64{}, bits); err != nil {
			t.Fatalf("streaming probe on valid encoding: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("streaming probe = %v, decode-then-filter = %v (adj %v, %d bits)", got, want, adj, nbits)
		}
	})
}
