package cache

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"benu/internal/graph"
)

// stressAdj is the one adjacency set ever installed for key k.
func stressAdj(k int64) []int64 {
	adj := make([]int64, 1+k%7)
	for i := range adj {
		adj[i] = k + int64(i)*3
	}
	return adj
}

// TestConcurrentStress drives every entry point from 8 goroutines over a
// key space several times the capacity, so the clock hand evicts
// continuously underneath lock-free readers. Run it under -race.
func TestConcurrentStress(t *testing.T) {
	const (
		goroutines = 8
		ops        = 20000
		keys       = 2000 // ~2000 × ~96 B against a 16 KiB budget: 10× over
		capacity   = 16 << 10
	)
	c := NewLRU(capacity)
	var fired, marks, reads atomic.Int64
	c.OnPrefetchUse(func() { fired.Add(1) })

	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var batch, missing []int64
			for i := 0; i < ops; i++ {
				k := rng.Int63n(keys)
				switch rng.Intn(8) {
				case 0, 1, 2:
					reads.Add(1)
					if adj, ok := c.Get(k); ok {
						if !slices.Equal(adj, stressAdj(k)) {
							t.Errorf("Get(%d) = %v, want %v", k, adj, stressAdj(k))
							return
						}
					} else {
						c.Put(k, stressAdj(k))
					}
				case 3, 4:
					reads.Add(1)
					if l, ok := c.GetList(k); ok {
						adj, err := l.AppendDecoded(nil)
						if err != nil || !slices.Equal(adj, stressAdj(k)) {
							t.Errorf("GetList(%d) = %v (%v), want %v", k, adj, err, stressAdj(k))
							return
						}
					} else {
						c.PutList(k, graph.EncodeAdjList(stressAdj(k)))
					}
				case 5:
					c.Put(k, stressAdj(k))
				case 6:
					// The prefetcher's sequence: peek, install, mark.
					batch = append(batch[:0], k, (k+1)%keys, (k+2)%keys)
					missing = c.AppendMissing(missing[:0], batch)
					for _, v := range missing {
						c.PutList(v, graph.EncodeAdjList(stressAdj(v)))
					}
					marks.Add(int64(len(missing)))
					c.MarkPrefetched(missing)
				case 7:
					if b := c.Bytes(); b > capacity {
						t.Errorf("Bytes() = %d exceeds capacity %d", b, capacity)
						return
					}
					c.Contains(k)
				}
			}
		}()
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != reads.Load() {
		t.Errorf("hits %d + misses %d != %d reads issued", st.Hits, st.Misses, reads.Load())
	}
	if st.Bytes > capacity || st.Bytes != c.Bytes() {
		t.Errorf("final bytes %d (Bytes() %d), capacity %d", st.Bytes, c.Bytes(), capacity)
	}
	if st.Evictions == 0 {
		t.Error("no evictions: the test exercised no eviction under readers")
	}
	if st.Entries != c.Len() || st.Entries == 0 {
		t.Errorf("entries = %d, Len() = %d", st.Entries, c.Len())
	}
	if fired.Load() > marks.Load() {
		t.Errorf("OnPrefetchUse fired %d times for %d marks", fired.Load(), marks.Load())
	}
	if fired.Load() == 0 {
		t.Error("OnPrefetchUse never fired")
	}
	// The accounting is exact: what is reachable through the index is
	// what the counters say.
	var entries int
	var bytes int64
	for k := int64(0); k < keys; k++ {
		if e := c.lookup(k); e != nil {
			entries++
			bytes += e.size
		}
	}
	if entries != st.Entries || bytes != st.Bytes {
		t.Errorf("index holds %d entries / %d bytes, counters say %d / %d", entries, bytes, st.Entries, st.Bytes)
	}
}

// TestPrefetchMarkConsumedOnce races many readers at one marked entry:
// exactly one of them consumes the mark.
func TestPrefetchMarkConsumedOnce(t *testing.T) {
	c := NewLRU(1 << 20)
	var fired atomic.Int64
	c.OnPrefetchUse(func() { fired.Add(1) })
	c.Put(7, []int64{1, 2, 3})
	for round := int64(1); round <= 200; round++ {
		c.MarkPrefetched([]int64{7})
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Get(7)
			}()
		}
		wg.Wait()
		if fired.Load() != round {
			t.Fatalf("round %d: hook fired %d times in total", round, fired.Load())
		}
	}
}

// TestKeysOutsideDomain pins the index's bounds: a key the radix table
// cannot address is never cached and never allocates index memory.
func TestKeysOutsideDomain(t *testing.T) {
	c := NewLRU(1 << 20)
	for _, k := range []int64{-1, -1 << 62, maxKeys, 1 << 40, 1<<63 - 1} {
		c.Put(k, []int64{1})
		c.PutList(k, graph.EncodeAdjList([]int64{1}))
		if _, ok := c.Get(k); ok {
			t.Errorf("Get(%d) hit", k)
		}
		if _, ok := c.GetList(k); ok {
			t.Errorf("GetList(%d) hit", k)
		}
		if c.Contains(k) {
			t.Errorf("Contains(%d)", k)
		}
		c.MarkPrefetched([]int64{k})
		if got := c.AppendMissing(nil, []int64{k}); len(got) != 1 {
			t.Errorf("AppendMissing(%d) = %v", k, got)
		}
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("out-of-domain keys cached: len %d bytes %d", c.Len(), c.Bytes())
	}
	for i := range c.root {
		if c.root[i].Load() != nil {
			t.Fatalf("out-of-domain keys allocated index table %d", i)
		}
	}
	// The largest addressable key works.
	c.Put(maxKeys-1, []int64{9})
	if adj, ok := c.Get(maxKeys - 1); !ok || len(adj) != 1 || adj[0] != 9 {
		t.Errorf("Get(maxKeys-1) = %v, %v", adj, ok)
	}
}

// TestSparseKeysDropEmptyPages pins the capacity term of the index bound:
// keys a page apart each need a page of their own, and eviction gives it
// back, so live pages never outnumber live entries.
func TestSparseKeysDropEmptyPages(t *testing.T) {
	const room = 4
	c := NewLRU(room * (8 + EntryOverhead))
	for i := int64(0); i < 500; i++ {
		c.Put(i<<pageBits, []int64{i})
	}
	if c.Len() != room {
		t.Fatalf("len = %d, want %d", c.Len(), room)
	}
	pages := 0
	for i := range c.root {
		m := c.root[i].Load()
		if m == nil {
			continue
		}
		for j := range m {
			if p := m[j].Load(); p != nil {
				pages++
				if p.live == 0 {
					t.Errorf("empty page %d/%d still linked", i, j)
				}
			}
		}
	}
	if pages != room {
		t.Errorf("%d pages linked for %d entries", pages, room)
	}
}
