package cache

import (
	"container/list"
	"math"
	"math/rand"
	"testing"
)

// exactLRU is the reference policy: the byte-bounded least-recently-used
// cache this package used to be, kept here so the second-chance policy is
// measured against the real thing on the same trace.
type exactLRU struct {
	capacity, bytes int64
	ll              *list.List // front = most recent; values are keys
	items           map[int64]*list.Element
	sizes           map[int64]int64
}

func (c *exactLRU) get(k int64) bool {
	el, ok := c.items[k]
	if ok {
		c.ll.MoveToFront(el)
	}
	return ok
}

func (c *exactLRU) put(k, size int64) {
	if size > c.capacity {
		return
	}
	c.items[k] = c.ll.PushFront(k)
	c.sizes[k] = size
	c.bytes += size
	for c.bytes > c.capacity {
		back := c.ll.Remove(c.ll.Back()).(int64)
		c.bytes -= c.sizes[back]
		delete(c.items, back)
		delete(c.sizes, back)
	}
}

// TestClockTracksLRU replays one seeded power-law key trace — the access
// pattern of hub-heavy graphs — through the cache and through exact LRU at
// four capacities. Second-chance is an approximation of LRU; this pins
// how close: within 2 points of hit rate.
func TestClockTracksLRU(t *testing.T) {
	const (
		keys     = 20000
		accesses = 400000
	)
	adjLen := func(k int64) int { return 1 + int(k%16) }
	var total int64
	for k := int64(0); k < keys; k++ {
		total += int64(adjLen(k))*8 + EntryOverhead
	}
	// Rank r of the Zipf law reads key perm[r], so popularity is not
	// correlated with set size or index locality.
	rng := rand.New(rand.NewSource(8))
	perm := rng.Perm(keys)
	zipf := rand.NewZipf(rng, 1.1, 4, keys-1)
	trace := make([]int64, accesses)
	for i := range trace {
		trace[i] = int64(perm[zipf.Uint64()])
	}

	for _, pct := range []int64{5, 10, 20, 40} {
		capacity := total * pct / 100
		clock := NewLRU(capacity)
		ref := &exactLRU{capacity: capacity, ll: list.New(),
			items: map[int64]*list.Element{}, sizes: map[int64]int64{}}
		var refHits int64
		for _, k := range trace {
			if _, ok := clock.Get(k); !ok {
				clock.Put(k, make([]int64, adjLen(k)))
			}
			if ref.get(k) {
				refHits++
			} else {
				ref.put(k, int64(adjLen(k))*8+EntryOverhead)
			}
		}
		got := clock.Stats().HitRate()
		want := float64(refHits) / accesses
		t.Logf("capacity %2d%%: second-chance %.4f, exact LRU %.4f (Δ %+.4f)", pct, got, want, got-want)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("capacity %d%%: hit rate %.4f is more than 2 points from exact LRU's %.4f", pct, got, want)
		}
		if want < 0.05 || want > 0.995 {
			t.Errorf("capacity %d%%: reference hit rate %.4f leaves nothing to compare", pct, want)
		}
	}
}
