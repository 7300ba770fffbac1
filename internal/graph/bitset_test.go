package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// probeBoth runs both probes — the raw one and the streaming AdjList
// twin — of list against a bitset of nbits ids mirroring fixed, and
// fails unless they agree with each other.
func probeBoth(t *testing.T, fixed, list []int64, nbits int) []int64 {
	t.Helper()
	b := NewBitset(nbits)
	b.Add(fixed)
	raw := b.AppendMembers([]int64{}, list)
	enc, err := EncodeAdjList(list).AppendMembers([]int64{}, b)
	if err != nil {
		t.Fatalf("streaming probe of a valid encoding: %v", err)
	}
	if !reflect.DeepEqual(raw, enc) {
		t.Fatalf("raw probe %v != streaming probe %v (fixed %v, list %v)", raw, enc, fixed, list)
	}
	for i := 1; i < len(raw); i++ {
		if raw[i-1] >= raw[i] {
			t.Fatalf("probe output not ascending: %v", raw)
		}
	}
	// Remove must undo Add exactly: the mirror follows its register.
	b.Remove(fixed)
	for w, word := range b {
		if word != 0 {
			t.Fatalf("word %d = %#x after removing every added id", w, word)
		}
	}
	return raw
}

// TestProbeMatchesIntersectSorted: probing a list against the bitset
// mirror of another is IntersectSorted of the two — on random pairs
// with either side empty, on both sides of the 16× skew guard, and on
// ids sitting at the word seams of the bitset.
func TestProbeMatchesIntersectSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const domain = 640
	for trial := 0; trial < 400; trial++ {
		na, nb := rng.Intn(40), rng.Intn(40)
		switch trial % 5 {
		case 0:
			na = 0
		case 1:
			nb = 0
		case 2:
			na, nb = 2, 2*GallopRatio+rng.Intn(8) // list ≥ 16× fixed: the executor would gallop
		case 3:
			na, nb = 2*GallopRatio+rng.Intn(8), 2 // fixed ≥ 16× list
		}
		fixed, list := randomSortedSet(rng, na, domain), randomSortedSet(rng, nb, domain)
		got := probeBoth(t, fixed, list, domain)
		if want := IntersectSorted([]int64{}, fixed, list); !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %v != IntersectSorted %v (fixed %v, list %v)", got, want, fixed, list)
		}
	}
	seams := []int64{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192}
	for mask := 0; mask < 1<<len(seams); mask += 37 {
		var fixed []int64
		for i, v := range seams {
			if mask&(1<<i) != 0 {
				fixed = append(fixed, v)
			}
		}
		got := probeBoth(t, fixed, seams, 193)
		if want := IntersectSorted([]int64{}, fixed, seams); !reflect.DeepEqual(got, want) {
			t.Fatalf("seam probe %v != %v (fixed %v)", got, want, fixed)
		}
	}
}

// TestProbeOutOfDomainIDs: ids past the bitset on either side — a list
// that reached the executor without crossing a validating boundary — do
// not panic, are never emitted, and leave every in-domain id's answer
// alone.
func TestProbeOutOfDomainIDs(t *testing.T) {
	const nbits = 128 // exactly two words: 128 is the first id outside
	wild := []int64{128, 129, 1000, 1 << 40, 1<<62 + 5}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 100; trial++ {
		fixedIn, listIn := randomSortedSet(rng, rng.Intn(30), nbits), randomSortedSet(rng, rng.Intn(30), nbits)
		want := IntersectSorted([]int64{}, fixedIn, listIn)
		for _, c := range []struct{ fixed, list []int64 }{
			{append(append([]int64{}, fixedIn...), wild...), listIn},
			{fixedIn, append(append([]int64{}, listIn...), wild...)},
			{append(append([]int64{}, fixedIn...), wild...), append(append([]int64{}, listIn...), wild...)},
		} {
			if got := probeBoth(t, c.fixed, c.list, nbits); !reflect.DeepEqual(got, want) {
				t.Fatalf("probe %v, want the in-domain intersection %v (fixed %v, list %v)", got, want, c.fixed, c.list)
			}
		}
	}
	// A negative id (no encoder produces one; a test store might) is
	// outside too.
	b := NewBitset(nbits)
	b.Add([]int64{-1, 5})
	if got := b.AppendMembers(nil, []int64{-1, 5}); !reflect.DeepEqual(got, []int64{5}) {
		t.Fatalf("probe with a negative id = %v, want [5]", got)
	}
	if b.Has(-1) || !b.Has(5) || b.Has(128) {
		t.Fatal("Has disagrees with the probe on -1 / 5 / 128")
	}
}

// TestStreamingProbeRejectsMalformed: the twin fails on the encodings
// every other decoder fails on.
func TestStreamingProbeRejectsMalformed(t *testing.T) {
	b := NewBitset(64)
	for _, bad := range [][]byte{{}, {5}, {1, 0x80}, {2, 4}} {
		if _, err := AdjListFromBytes(bad).AppendMembers(nil, b); err == nil {
			t.Errorf("streaming probe accepted %v", bad)
		}
	}
}

func TestValidateIn(t *testing.T) {
	l := EncodeAdjList([]int64{3, 9, 49})
	if err := l.ValidateIn(50); err != nil {
		t.Errorf("last id 49 of 50 vertices rejected: %v", err)
	}
	if err := l.ValidateIn(49); err == nil {
		t.Error("last id 49 of 49 vertices accepted")
	}
	if err := EncodeAdjList(nil).ValidateIn(0); err != nil {
		t.Errorf("empty list of an empty graph rejected: %v", err)
	}
	if err := AdjListFromBytes([]byte{2, 4, 0}).ValidateIn(100); err == nil {
		t.Error("ValidateIn skipped the shape checks")
	}
}
