// Package cache implements the per-machine in-memory database cache of
// §V-A: a byte-capacity-bounded cache over adjacency sets, shared by all
// working threads of a machine. The cache exploits both intra-task
// locality (backtracking revisits the start vertex's neighborhood) and
// inter-task locality (hot high-degree vertices are queried by many
// tasks), trading memory for communication.
//
// Reads take no lock. The index is a three-level radix table of atomic
// pointers keyed by vertex id; an entry is immutable once published and
// is replaced by pointer, never edited. A hit loads three pointers,
// bumps a counter stripe only its own goroutine writes, and — only while
// it is still set/clear — consumes the entry's prefetched flag or, on a
// later read, sets its reference bit. Once the reference bit is set a hit
// stores to no memory another thread reads, so threads hammering the same
// hub vertex share its cache lines read-only.
//
// Writes (Put, PutList, eviction) and the exact accounting (Stats, Len,
// Bytes) serialize on one mutex. Eviction is second-chance (CLOCK): the
// entries form a ring in insertion order; the hand evicts the first
// entry whose reference bit is clear and clears the bits it passes. Exact
// LRU needs a shared write per hit to keep recency, which is precisely
// the contention this design removes; CLOCK is its standard
// approximation and tracks its hit rate within a point or two (see
// TestClockTracksLRU and the Fig. 8 table in EXPERIMENTS.md).
//
// Reader/writer contract: a Get concurrent with a Put or an eviction of
// the same key sees either the old state or the new one; the slice or
// list a hit returns stays valid (and immutable) after the entry is
// evicted. The byte budget is global and exact: Bytes() never exceeds
// the capacity.
//
// Index memory. Cacheable keys are the vertex ids in [0, 2³¹); any other
// key is simply never cached. With N = 1 + the largest key ever cached,
// the index holds a 16 KiB root, one 8 KiB middle table per 2²⁰ keys, and
// one 8 KiB page per 2¹⁰ keys that currently has at least one entry
// (an emptied page is dropped), so
//
//	index bytes ≤ 16 KiB + 8 KiB·⌈N/2²⁰⌉ + 8 KiB·min(⌈N/2¹⁰⌉, capacity/64)
//
// — about 8 bytes per vertex when the ids are dense, the size of the
// TotalOrder rank table every worker already holds — plus 8 KiB of
// counter stripes.
package cache

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"benu/internal/graph"
)

// EntryOverhead approximates the per-entry bookkeeping cost in bytes
// (index slot, ring links, header), charged against capacity in addition
// to the 8 bytes per adjacency entry.
const EntryOverhead = 64

// Index geometry: key = root index | middle index | page slot.
const (
	pageBits = 10
	midBits  = 10
	rootBits = 11
	maxKeys  = 1 << (rootBits + midBits + pageBits)
)

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	Capacity  int64
}

// HitRate returns hits / (hits + misses), or 0 when the cache was never
// queried.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// LRU is a thread-safe cache from vertex id to adjacency set with a
// byte-denominated capacity: lock-free reads, second-chance eviction
// (see the package comment). The name predates the policy.
type LRU struct {
	capacity int64

	root    [1 << rootBits]atomic.Pointer[middle]
	stripes [1 << stripeBits]stripe
	onPFUse atomic.Pointer[func()]

	mu        sync.Mutex // writers and exact accounting; never taken by a read
	hand      *entry     // oldest ring entry, the next eviction candidate
	bytes     int64
	entries   int
	evictions int64
}

type middle [1 << midBits]atomic.Pointer[page]

type page struct {
	slots [1 << pageBits]atomic.Pointer[entry]
	live  int // occupied slots; guarded by LRU.mu
}

// entry holds one cached adjacency set in exactly one of two forms: the
// raw decoded slice (Put) or the compact varint-delta encoding
// (PutList). A cache serves whichever form it stores; a source runs one
// mode end to end, so cross-form reads (Get of a compact entry, GetList
// of a raw one) are correct but pay a per-call conversion. Everything
// but the two flags is immutable once the entry is published.
type entry struct {
	key  int64
	adj  []int64
	list graph.AdjList
	size int64

	ref        atomic.Bool // read since the clock hand last passed
	prefetched atomic.Bool // installed ahead of demand, not yet read

	next, prev *entry // clock ring; guarded by LRU.mu
}

// stripeBits sizes the hit/miss counter stripes: 2⁷ cache lines, 8 KiB.
const stripeBits = 7

// stripe is one cache line of read counters.
type stripe struct {
	hits, misses atomic.Int64
	_            [64 - 16]byte
}

// stripe picks the calling goroutine's counter stripe by hashing the
// address of a stack variable: goroutine stacks are disjoint and at
// least 2 KiB, so two threads share a stripe (and its cache line) only
// by hash collision, which costs speed, not correctness.
func (c *LRU) stripe() *stripe {
	var here byte
	block := uint64(uintptr(unsafe.Pointer(&here))) >> 11
	return &c.stripes[block*0x9E3779B97F4A7C15>>(64-stripeBits)]
}

// NewLRU creates a cache holding at most capacity bytes of adjacency data
// (8 bytes per entry plus per-set overhead). A capacity ≤ 0 disables
// caching: every Get misses and Put is a no-op.
func NewLRU(capacity int64) *LRU {
	return &LRU{capacity: capacity}
}

// split cuts a key into its root, middle and page indices.
func split(v int64) (r, m, s int64) {
	return v >> (midBits + pageBits), v >> pageBits & (1<<midBits - 1), v & (1<<pageBits - 1)
}

// lookup returns the entry of v, or nil. It spells the indices out level
// by level: computing all three up front through split costs a hit 1 ns
// in 10.
func (c *LRU) lookup(v int64) *entry {
	if uint64(v) >= maxKeys {
		return nil
	}
	m := c.root[v>>(midBits+pageBits)].Load()
	if m == nil {
		return nil
	}
	p := m[v>>pageBits&(1<<midBits-1)].Load()
	if p == nil {
		return nil
	}
	return p.slots[v&(1<<pageBits-1)].Load()
}

// read is the demand read shared by Get and GetList: count the hit or
// miss, then either consume the prefetched flag or give the entry its
// second chance — never both. The read that consumes the flag stands for
// the demand miss the prefetch replaced, and a miss hands out the fetched
// value without touching any reference bit; were the consuming read to
// set the bit, every prefetched read-once list would outlive a sweep the
// same list fetched on demand would not, and push re-read hubs out.
//
//benulint:hotpath every DBQ instruction of every thread lands here
func (c *LRU) read(v int64) *entry {
	s := c.stripe()
	e := c.lookup(v)
	if e == nil {
		s.misses.Add(1)
		return nil
	}
	s.hits.Add(1)
	if e.prefetched.Load() && e.prefetched.CompareAndSwap(true, false) {
		if fn := c.onPFUse.Load(); fn != nil {
			(*fn)()
		}
		return e
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e
}

// Get returns the cached adjacency set of v. The returned slice must be
// treated as immutable.
//
//benulint:hotpath the raw hit path
func (c *LRU) Get(v int64) ([]int64, bool) {
	e := c.read(v)
	if e == nil {
		return nil, false
	}
	if e.adj == nil && !e.list.IsZero() {
		// Compact entry read through the raw interface: decode per call
		// (payloads installed by PutList are validated, so the decode
		// cannot fail).
		adj, _ := e.list.AppendDecoded(nil)
		return adj, true
	}
	return e.adj, true
}

// GetList returns the cached adjacency set of v in compact form. Raw
// entries are encoded per call; compact entries are returned as stored
// (zero-copy).
//
//benulint:hotpath the compact hit path
func (c *LRU) GetList(v int64) (l graph.AdjList, ok bool) {
	e := c.read(v)
	if e == nil {
		return l, false
	}
	if e.list.IsZero() && e.adj != nil {
		return graph.EncodeAdjList(e.adj), true
	}
	return e.list, true
}

// OnPrefetchUse registers fn to run each time a demand read consumes a
// prefetched entry. It runs on the reading goroutine with no cache lock
// held, possibly on several goroutines at once, so it must be safe for
// concurrent use (an atomic counter is); it fires exactly once per
// consumed mark. Register it before the cache is shared.
func (c *LRU) OnPrefetchUse(fn func()) {
	if fn == nil {
		c.onPFUse.Store(nil)
		return
	}
	c.onPFUse.Store(&fn)
}

// MarkPrefetched flags the given keys (those of them currently cached)
// as installed ahead of demand. The flag is consumed by the first Get or
// GetList that reads the entry, firing the OnPrefetchUse hook and leaving
// the reference bit clear (see read); eviction simply drops it. Takes no
// lock.
func (c *LRU) MarkPrefetched(keys []int64) {
	for _, v := range keys {
		if e := c.lookup(v); e != nil {
			e.prefetched.Store(true)
		}
	}
}

// AppendMissing appends to dst the keys of vs that are not currently
// cached, preserving order — the prefetcher's batch peek. Like Contains
// it touches neither the reference bits nor the hit/miss counters, and
// takes no lock. A disabled cache misses everything.
func (c *LRU) AppendMissing(dst, vs []int64) []int64 {
	for _, v := range vs {
		if c.lookup(v) == nil {
			dst = append(dst, v)
		}
	}
	return dst
}

// Contains reports whether v is cached, without touching its reference
// bit or the hit/miss counters — the prefetcher's peek, used to skip
// keys that a batch fetch would only re-install.
func (c *LRU) Contains(v int64) bool {
	return c.lookup(v) != nil
}

// Peek returns the cached set of v in the form it is stored (as Put or
// PutList left it), off the books: no counter moves and neither flag
// changes. The source uses it under its single-flight lock, to see a
// list that a flight installed after the caller's counted miss.
func (c *LRU) Peek(v int64) (adj []int64, list graph.AdjList, ok bool) {
	e := c.lookup(v)
	if e == nil {
		return nil, graph.AdjList{}, false
	}
	return e.adj, e.list, true
}

// Put inserts the adjacency set of v, evicting second-chance victims
// until the cache fits its capacity. Sets larger than the whole capacity
// are not cached at all. Re-inserting an existing key moves it to the
// young end of the ring.
func (c *LRU) Put(v int64, adj []int64) {
	c.install(v, adj, graph.AdjList{}, int64(len(adj))*8+EntryOverhead)
}

// PutList inserts the compact adjacency list of v under the same policy
// as Put, charging the encoded size against capacity — the point of the
// compact data plane: the cache holds the wire bytes, so the same budget
// caches several times more vertices.
func (c *LRU) PutList(v int64, l graph.AdjList) {
	c.install(v, nil, l, l.SizeBytes()+EntryOverhead)
}

// install publishes an entry for key, charged size bytes, replacing any
// entry of the same key (whose unread prefetched mark it inherits). Room
// is made first, so a new entry is never the victim of its own insertion
// and the footprint never exceeds the capacity, not even inside the
// critical section.
func (c *LRU) install(key int64, adj []int64, list graph.AdjList, size int64) {
	if size > c.capacity || uint64(key) >= maxKeys {
		return
	}
	e := &entry{key: key, adj: adj, list: list, size: size}
	ri, mi, si := split(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.root[ri].Load()
	if m == nil {
		m = new(middle)
		c.root[ri].Store(m)
	}
	p := m[mi].Load()
	if p == nil {
		p = new(page)
		m[mi].Store(p)
	}
	if old := p.slots[si].Load(); old != nil {
		e.prefetched.Store(old.prefetched.Swap(false))
		c.unlink(old)
		c.bytes -= old.size
	} else {
		p.live++ // claimed now, so making room cannot drop the page
		c.entries++
	}
	c.evict(c.capacity - size)
	// Behind the hand: the last place the sweep reaches.
	if c.hand == nil {
		c.hand, e.next, e.prev = e, e, e
	} else {
		e.next, e.prev = c.hand, c.hand.prev
		e.prev.next, e.next.prev = e, e
	}
	c.bytes += size
	p.slots[si].Store(e)
}

// unlink takes e out of the ring. Caller holds c.mu.
func (c *LRU) unlink(e *entry) {
	if e.next == e {
		c.hand = nil
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	if c.hand == e {
		c.hand = e.next
	}
}

// evict sweeps the clock hand until the footprint is at most limit: an
// entry read since the last pass gives up its reference bit and is
// spared, any other is dropped. Caller holds c.mu.
func (c *LRU) evict(limit int64) {
	for c.bytes > limit {
		e := c.hand
		if e.ref.Load() {
			e.ref.Store(false)
			c.hand = e.next
			continue
		}
		c.unlink(e)
		ri, mi, si := split(e.key)
		m := c.root[ri].Load()
		p := m[mi].Load()
		p.slots[si].Store(nil)
		if p.live--; p.live == 0 {
			// Readers still holding the page see it empty; writers
			// allocate a fresh one.
			m[mi].Store(nil)
		}
		c.bytes -= e.size
		c.entries--
		c.evictions++
	}
}

// Stats returns a snapshot of the cache counters. Hits and misses are
// summed over the stripes, so reads racing the call may or may not be
// included.
func (c *LRU) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Evictions: c.evictions,
		Entries:   c.entries,
		Bytes:     c.bytes,
		Capacity:  c.capacity,
	}
	for i := range c.stripes {
		st.Hits += c.stripes[i].hits.Load()
		st.Misses += c.stripes[i].misses.Load()
	}
	return st
}

// Len returns the number of cached sets.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries
}

// Bytes returns the current byte footprint.
func (c *LRU) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
