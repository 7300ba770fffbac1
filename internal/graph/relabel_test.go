package graph

import (
	"math/rand"
	"testing"
)

// TestRelabelFollowsOrder: the renamed graph is g under ≺'s ranks —
// every edge, label and input id carried — and its own order is the
// identity, fingerprinted by the map rather than by 0..N-1.
func TestRelabelFollowsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder(40)
	for i := 0; i < 120; i++ {
		b.AddEdge(rng.Int63n(40), rng.Int63n(40))
	}
	g := b.Build()
	labels := make([]int64, g.NumVertices())
	for v := range labels {
		labels[v] = int64(v % 3)
	}
	g, err := g.WithVertexLabels(labels)
	if err != nil {
		t.Fatal(err)
	}
	ord := NewTotalOrder(g)
	if ord.Identity() || g.DegreeOrdered() {
		t.Fatal("a random graph's ids already follow ≺; the test exercises nothing")
	}
	h := Relabel(g)
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("relabelled N=%d M=%d, input N=%d M=%d", h.NumVertices(), h.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	g.Edges(func(u, v int64) bool {
		if !h.HasEdge(ord.Rank(u), ord.Rank(v)) {
			t.Errorf("edge (%d,%d) lost", u, v)
		}
		return true
	})
	for v := int64(0); v < int64(g.NumVertices()); v++ {
		r := ord.Rank(v)
		if h.InputID(r) != v || h.Label(r) != g.Label(v) {
			t.Errorf("vertex %d → %d: input id %d, label %d (want %d)", v, r, h.InputID(r), h.Label(r), g.Label(v))
		}
	}
	if !h.DegreeOrdered() || !NewTotalOrder(h).Identity() {
		t.Fatal("the relabelled graph's order is not the identity")
	}
	in := h.InputOrder()
	for v := int64(0); v < int64(g.NumVertices()); v++ {
		if in.Rank(v) != ord.Rank(v) {
			t.Fatalf("InputOrder rank of %d = %d, NewTotalOrder of the input says %d", v, in.Rank(v), ord.Rank(v))
		}
	}
	if NewTotalOrder(h).Fingerprint() == IdentityOrder(h.NumVertices()).Fingerprint() {
		t.Error("the relabelled order's fingerprint ignores the relabel map")
	}
	if hh := Relabel(h); hh.InputID(7) != h.InputID(7) {
		t.Errorf("relabelling twice loses the input ids: %d, want %d", hh.InputID(7), h.InputID(7))
	}
}

func TestFingerprintIsOrderSensitive(t *testing.T) {
	a, _ := OrderFromRanks([]int64{0, 2, 1})
	b, _ := OrderFromRanks([]int64{0, 1, 2})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("Fingerprint is order-insensitive")
	}
	if a.Identity() || !b.Identity() {
		t.Fatalf("Identity: %v for a swap, %v for 0..2", a.Identity(), b.Identity())
	}
}

// TestBetween checks the back-searching trim against a linear filter.
func TestBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		var s []int64
		for v := int64(0); v < 60; v++ {
			if rng.Intn(3) == 0 {
				s = append(s, v)
			}
		}
		lo, hi := rng.Int63n(64)-2, rng.Int63n(64)
		if rng.Intn(4) == 0 {
			hi = NoUpper
		}
		var want []int64
		for _, v := range s {
			if v > lo && v < hi {
				want = append(want, v)
			}
		}
		got := Between(s, lo, hi)
		if len(got) != len(want) {
			t.Fatalf("Between(%v, %d, %d) = %v, want %v", s, lo, hi, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Between(%v, %d, %d) = %v, want %v", s, lo, hi, got, want)
			}
		}
	}
}
