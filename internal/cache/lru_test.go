package cache

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"benu/internal/graph"
)

func TestLRUBasicHitMiss(t *testing.T) {
	c := NewLRU(1 << 20)
	if _, ok := c.Get(1); ok {
		t.Error("hit on empty cache")
	}
	c.Put(1, []int64{10, 20})
	adj, ok := c.Get(1)
	if !ok || len(adj) != 2 {
		t.Fatalf("Get(1) = %v, %v", adj, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Room for exactly two single-entry sets.
	c := NewLRU(2 * (8 + EntryOverhead))
	c.Put(1, []int64{1})
	c.Put(2, []int64{2})
	c.Get(1) // 1 is now more recent than 2
	c.Put(3, []int64{3})
	if _, ok := c.Get(2); ok {
		t.Error("LRU entry 2 not evicted")
	}
	if _, ok := c.Get(1); !ok {
		t.Error("recently used entry 1 evicted")
	}
	if _, ok := c.Get(3); !ok {
		t.Error("new entry 3 missing")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestLRUCapacityNeverExceeded(t *testing.T) {
	cap := int64(10 * (8*4 + EntryOverhead))
	c := NewLRU(cap)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		n := rng.Intn(8)
		adj := make([]int64, n)
		c.Put(rng.Int63n(100), adj)
		if c.Bytes() > cap {
			t.Fatalf("bytes %d exceed capacity %d", c.Bytes(), cap)
		}
	}
}

func TestLRUOversizedSetNotCached(t *testing.T) {
	c := NewLRU(100)
	big := make([]int64, 1000)
	c.Put(1, big)
	if _, ok := c.Get(1); ok {
		t.Error("oversized set cached")
	}
	if c.Len() != 0 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestLRUZeroCapacityDisabled(t *testing.T) {
	c := NewLRU(0)
	c.Put(1, []int64{1})
	if _, ok := c.Get(1); ok {
		t.Error("zero-capacity cache stored something")
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d", st.Misses)
	}
}

func TestLRUUpdateExistingKey(t *testing.T) {
	c := NewLRU(1 << 20)
	c.Put(1, []int64{1})
	c.Put(1, []int64{1, 2, 3})
	adj, ok := c.Get(1)
	if !ok || len(adj) != 3 {
		t.Fatalf("updated entry = %v", adj)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestLRUHitsPlusMissesEqualsGets(t *testing.T) {
	check := func(keys []uint8) bool {
		c := NewLRU(5 * (8 + EntryOverhead))
		gets := 0
		for _, k := range keys {
			key := int64(k % 16)
			if _, ok := c.Get(key); !ok {
				c.Put(key, []int64{key})
			}
			gets++
		}
		st := c.Stats()
		return st.Hits+st.Misses == int64(gets)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	c := NewLRU(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := rng.Int63n(200)
				if adj, ok := c.Get(k); ok {
					if len(adj) != int(k%7) {
						t.Errorf("corrupted entry for %d", k)
						return
					}
				} else {
					c.Put(k, make([]int64, k%7))
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*2000 {
		t.Errorf("lost operations: %+v", st)
	}
}

func TestLRUPrefetchCoverage(t *testing.T) {
	c := NewLRU(1 << 20)
	var used int
	c.OnPrefetchUse(func() { used++ })

	c.Put(1, []int64{10})
	c.Put(2, []int64{20})
	c.MarkPrefetched([]int64{1, 2, 99}) // 99 uncached: ignored

	if _, ok := c.Get(1); !ok {
		t.Fatal("key 1 should be cached")
	}
	if used != 1 {
		t.Fatalf("used = %d after first read, want 1", used)
	}
	// The flag is consumed: a second read of the same entry must not
	// count again.
	c.Get(1)
	if used != 1 {
		t.Fatalf("used = %d after re-read, want 1", used)
	}
	// GetList consumes the flag the same way.
	if _, ok := c.GetList(2); !ok {
		t.Fatal("key 2 should be cached")
	}
	if used != 2 {
		t.Fatalf("used = %d after GetList, want 2", used)
	}
	// Re-marking re-arms the flag.
	c.MarkPrefetched([]int64{1})
	c.Get(1)
	if used != 3 {
		t.Fatalf("used = %d after re-mark, want 3", used)
	}
}

// TestPrefetchedReadEarnsNoSecondChance pins the CLOCK rule that keeps
// prefetching from costing bytes: the read that consumes an entry's
// prefetched mark stands for the demand miss the prefetch replaced, and a
// miss sets no reference bit — so that read leaves the bit clear, the
// next one sets it, and an entry nobody marked behaves as it always did.
func TestPrefetchedReadEarnsNoSecondChance(t *testing.T) {
	one := []int64{7}
	size := int64(len(one))*8 + EntryOverhead
	c := NewLRU(2 * size)
	c.Put(1, one)
	c.Put(2, one)
	c.MarkPrefetched([]int64{1})

	c.Get(1)
	if c.lookup(1).ref.Load() {
		t.Fatal("the mark-consuming read set the reference bit")
	}
	c.Get(2)
	if !c.lookup(2).ref.Load() {
		t.Fatal("the first read of an unmarked entry did not set the reference bit")
	}
	// Both entries have been read once; the prefetched one is the victim.
	c.Put(3, one)
	if c.Contains(1) || !c.Contains(2) {
		t.Fatalf("after one read each, eviction kept prefetched=%v unmarked=%v, want false/true",
			c.Contains(1), c.Contains(2))
	}

	c.Put(1, one)
	c.MarkPrefetched([]int64{1})
	c.Get(1)
	c.Get(1)
	if !c.lookup(1).ref.Load() {
		t.Fatal("the second read of a prefetched entry did not set the reference bit")
	}
}

// TestLRUPeekIsOffTheBooks: Peek hands out what a hit would, and leaves
// counters, reference bit and prefetched mark as they were.
func TestLRUPeekIsOffTheBooks(t *testing.T) {
	c := NewLRU(1 << 20)
	c.Put(1, []int64{10, 11})
	c.PutList(2, graph.EncodeAdjList([]int64{20}))
	c.MarkPrefetched([]int64{1})

	if adj, list, ok := c.Peek(1); !ok || len(adj) != 2 || !list.IsZero() {
		t.Fatalf("Peek(raw) = %v, %v, %v", adj, list, ok)
	}
	if adj, list, ok := c.Peek(2); !ok || adj != nil || list.Len() != 1 {
		t.Fatalf("Peek(compact) = %v, %v, %v", adj, list, ok)
	}
	if _, _, ok := c.Peek(3); ok {
		t.Fatal("Peek of an uncached key reported a hit")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek touched counters: %+v", st)
	}
	if e := c.lookup(1); e.ref.Load() || !e.prefetched.Load() {
		t.Fatalf("Peek touched flags: ref=%v prefetched=%v", e.ref.Load(), e.prefetched.Load())
	}
}

func TestLRUAppendMissing(t *testing.T) {
	c := NewLRU(1 << 20)
	c.Put(2, []int64{1})
	c.Put(4, []int64{1})
	got := c.AppendMissing(nil, []int64{1, 2, 3, 4, 5})
	want := []int64{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("AppendMissing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendMissing = %v, want %v", got, want)
		}
	}
	// Appends to an existing prefix and never touches hit/miss counters.
	pre := []int64{42}
	got = c.AppendMissing(pre, []int64{2, 3})
	if len(got) != 2 || got[0] != 42 || got[1] != 3 {
		t.Fatalf("AppendMissing with prefix = %v", got)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("AppendMissing touched counters: %+v", st)
	}
	// A disabled cache misses everything.
	d := NewLRU(0)
	if got := d.AppendMissing(nil, []int64{7, 8}); len(got) != 2 {
		t.Fatalf("disabled cache AppendMissing = %v", got)
	}
}

// TestHitAllocatesNothing pins the hit path's allocation behavior in both
// forms a source runs end to end: a raw hit through Get and a compact hit
// through GetList return what is stored, zero-copy.
func TestHitAllocatesNothing(t *testing.T) {
	c := NewLRU(1 << 20)
	c.Put(1, []int64{10, 20, 30})
	c.PutList(2, graph.EncodeAdjList([]int64{10, 20, 30}))
	var n int
	if allocs := testing.AllocsPerRun(1000, func() {
		adj, _ := c.Get(1)
		n += len(adj)
	}); allocs != 0 {
		t.Errorf("raw hit allocates %v per Get", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		l, _ := c.GetList(2)
		n += l.Len()
	}); allocs != 0 {
		t.Errorf("compact hit allocates %v per GetList", allocs)
	}
	if n != 2*1001*3 { // AllocsPerRun adds one warm-up call per form
		t.Errorf("hits returned %d elements in total, want %d", n, 2*1001*3)
	}
}

// TestNewEntrySurvivesItsInsertion pins make-room-then-insert: with every
// resident entry referenced the sweep clears their bits and comes back
// for the oldest; it never reaches the entry being installed.
func TestNewEntrySurvivesItsInsertion(t *testing.T) {
	c := NewLRU(2 * (8 + EntryOverhead))
	c.Put(1, []int64{1})
	c.Put(2, []int64{2})
	c.Get(1)
	c.Get(2)
	c.Put(3, []int64{3})
	if !c.Contains(3) {
		t.Error("the entry just installed was evicted by its own insertion")
	}
	if c.Contains(1) || !c.Contains(2) {
		t.Errorf("victim should be the oldest entry: contains(1)=%v contains(2)=%v", c.Contains(1), c.Contains(2))
	}
	if c.Len() != 2 || c.Stats().Evictions != 1 {
		t.Errorf("len = %d, evictions = %d", c.Len(), c.Stats().Evictions)
	}
}
