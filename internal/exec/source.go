package exec

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"benu/internal/cache"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
)

// CachedSource is the per-machine adjacency source of Fig. 2: a shared
// in-memory DB cache in front of the distributed database. Cache hits are
// free; misses query the store, install the result, and count as
// communication.
//
// It is also the one place a machine's data plane is configured
// (SourceOptions): every executor built over it reads that mode from it.
// Beyond the plain read-through cache it implements:
//
//   - Single-flight misses: concurrent misses on the same key issue ONE
//     store query; every other caller joins the in-flight fetch and
//     shares its result. Duplicate remote fetches (and the double
//     accounting they used to cause) are structurally impossible.
//   - Compact mode (SourceOptions.Compact): fetches travel and cache as
//     varint-delta graph.AdjList payloads — typically 4-8x smaller than
//     raw int64 slices — and executors read them without decoding the
//     whole list.
//   - Prefetch (SourceOptions.Prefetch): keys known ahead of demand
//     arrive in whole sets — an ENU loop's candidates from the executor,
//     a task window's start vertices and, from them, its tasks'
//     first-level candidates from the runtime (PrefetchWindow) — and the
//     uncached ones are fetched inline in batched round trips. A failed
//     batch is counted (source.prefetch.errors); a caller may drop the
//     error, because the demand path will re-fetch and surface it.
//
// A CachedSource is safe for concurrent use by all worker threads of a
// machine.
type CachedSource struct {
	store    kv.Store
	cache    *cache.LRU
	capacity int64
	opts     SourceOptions

	remoteQueries atomic.Int64
	remoteBytes   atomic.Int64
	remoteTrips   atomic.Int64

	mu      sync.Mutex
	flights map[int64]*flight

	so *sourceObs
}

// SourceOptions configures a CachedSource's data plane. The zero value
// reproduces the classic behavior: raw []int64 fetches one miss at a
// time, metrics into obs.Default().
type SourceOptions struct {
	// Compact moves fetches and cache entries to the compact varint-delta
	// encoding (graph.AdjList). Executors over a compact source read
	// through getList and decode into per-instruction scratch.
	Compact bool
	// Prefetch turns on batched fetching ahead of demand: executors over
	// this source hand each prefetchable ENU loop's candidates to Prefetch
	// before iterating, and PrefetchWindow fetches a task window. Off,
	// PrefetchWindow returns at once and executors never prefetch.
	Prefetch bool
	// BatchSize caps the keys per batched store round trip (default 64).
	BatchSize int
	// Obs selects the metrics registry (source.* names, see
	// docs/METRICS.md). nil means obs.Default().
	Obs *obs.Registry
	// Ctx, when set, bounds the source's store traffic: once it is
	// cancelled, misses and prefetches fail with the context error
	// instead of issuing new store round trips. Cache hits still serve
	// (they cost nothing and keep the teardown path simple). nil means
	// never cancelled.
	Ctx context.Context
}

// defaultBatchSize bounds one batched round trip when SourceOptions does
// not say otherwise.
const defaultBatchSize = 64

// StoreSource adapts a kv.Store as an uncached AdjSource: every read is
// a single-key store round trip through the batched SPI, decoded per
// call. Delta queries over a mutating store use it — caching would serve
// stale adjacency; everything else wants CachedSource.
type StoreSource struct{ S kv.Store }

// GetAdj implements AdjSource.
func (s StoreSource) GetAdj(v int64) ([]int64, error) { return kv.GetAdj(s.S, v) }

// flight is one in-progress store fetch that concurrent misses share. It
// carries the list in the source's form: list when compact, adj when raw.
type flight struct {
	done chan struct{}
	adj  []int64
	list graph.AdjList
	err  error
}

// sourceObs is the pre-resolved registry handles of one source.
type sourceObs struct {
	batchSize   *obs.Histogram
	dedupJoins  *obs.Counter
	pfInstalled *obs.Counter
	pfUsed      *obs.Counter
	pfErrors    *obs.Counter
	bytesSaved  *obs.Counter
	scratchUses *obs.Counter
}

func newSourceObs(r *obs.Registry) *sourceObs {
	if r == nil {
		r = obs.Default()
	}
	return &sourceObs{
		batchSize:   r.Histogram("source.batch.size"),
		dedupJoins:  r.Counter("source.singleflight.joins"),
		pfInstalled: r.Counter("source.prefetch.installed"),
		pfUsed:      r.Counter("source.prefetch.used"),
		pfErrors:    r.Counter("source.prefetch.errors"),
		bytesSaved:  r.Counter("source.compact.bytes_saved"),
		scratchUses: r.Counter("source.scratch.borrows"),
	}
}

// NewCachedSource wraps store with a database cache of the given
// byte capacity and default data-plane options. capacity ≤ 0 disables
// caching (every query is remote).
func NewCachedSource(store kv.Store, capacity int64) *CachedSource {
	return NewCachedSourceWith(store, capacity, SourceOptions{})
}

// NewCachedSourceWith wraps store with a database cache and the
// given data-plane options.
func NewCachedSourceWith(store kv.Store, capacity int64, opts SourceOptions) *CachedSource {
	if opts.BatchSize <= 0 {
		opts.BatchSize = defaultBatchSize
	}
	s := &CachedSource{
		store:    store,
		cache:    cache.NewLRU(capacity),
		capacity: capacity,
		opts:     opts,
		flights:  make(map[int64]*flight),
		so:       newSourceObs(opts.Obs),
	}
	// Prefetch coverage rides the cache's own hit path: entries installed
	// ahead of demand are flagged, and the first demand read of a flagged
	// entry bumps the counter — no per-hit bookkeeping in the source.
	s.cache.OnPrefetchUse(s.so.pfUsed.Inc)
	return s
}

// GetAdj implements AdjSource. Executors over a compact source read
// through getList instead; a raw read of one decodes per call.
func (s *CachedSource) GetAdj(v int64) ([]int64, error) {
	if adj, ok := s.cache.Get(v); ok {
		return adj, nil
	}
	fl, err := s.fetchOne(v)
	if err != nil {
		return nil, err
	}
	if s.opts.Compact {
		return fl.list.AppendDecoded(nil)
	}
	return fl.adj, nil
}

// getList is the compact read path, for compact sources only: a hit is
// zero-copy.
func (s *CachedSource) getList(v int64) (graph.AdjList, error) {
	if l, ok := s.cache.GetList(v); ok {
		return l, nil
	}
	fl, err := s.fetchOne(v)
	if err != nil {
		return graph.AdjList{}, err
	}
	return fl.list, nil
}

// ctxErr reports the source context's cancellation, if any.
func (s *CachedSource) ctxErr() error {
	if s.opts.Ctx != nil {
		return s.opts.Ctx.Err()
	}
	return nil
}

// fetchOne resolves a cache miss through the single-flight table: the
// first caller becomes the flight leader (one store query, one accounting
// update, one cache install); concurrent callers block on the flight and
// share its result. A waiter whose leader failed retries with its own
// fetch, so transient store errors are not broadcast beyond the flight
// that hit them. A flight installs its list before it leaves the table,
// so a caller that finds no flight looks in the cache once more under the
// lock: a flight (a window batch, typically) that came and went between
// the caller's miss and its taking the lock left the list there, and
// leading a second fetch for it would count the key twice.
func (s *CachedSource) fetchOne(v int64) (*flight, error) {
	if err := s.ctxErr(); err != nil {
		return nil, err
	}
	for {
		s.mu.Lock()
		if fl, ok := s.flights[v]; ok {
			s.mu.Unlock()
			s.so.dedupJoins.Inc()
			<-fl.done
			if fl.err == nil {
				return fl, nil
			}
			continue // leader failed; retry with our own fetch
		}
		if adj, list, ok := s.cache.Peek(v); ok {
			s.mu.Unlock()
			return &flight{adj: adj, list: list}, nil
		}
		fl := &flight{done: make(chan struct{})}
		s.flights[v] = fl
		s.mu.Unlock()

		s.lead(fl, v)
		if fl.err != nil {
			return nil, fl.err
		}
		return fl, nil
	}
}

// lead performs the leader's store fetch for flight fl and completes it.
func (s *CachedSource) lead(fl *flight, v int64) {
	if s.opts.Compact {
		lists, err := s.store.GetAdjBatch([]int64{v})
		if err == nil {
			fl.list = lists[0]
			s.account(1, fl.list.SizeBytes())
			s.so.bytesSaved.Add(int64(fl.list.Len())*8 - fl.list.SizeBytes())
			s.cache.PutList(v, fl.list)
		} else {
			fl.err = err
		}
	} else {
		adj, err := kv.GetAdj(s.store, v)
		if err == nil {
			fl.adj = adj
			s.account(1, int64(len(adj))*8)
			s.cache.Put(v, adj)
		} else {
			fl.err = err
		}
	}
	s.complete(v, fl)
}

// complete removes fl from the flight table and releases its waiters.
// The removal must happen before the channel close: a waiter that saw an
// error loops back to retry, and it must not rejoin the dead flight.
func (s *CachedSource) complete(v int64, fl *flight) {
	s.mu.Lock()
	delete(s.flights, v)
	s.mu.Unlock()
	close(fl.done)
}

// account records remote traffic: one store round trip serving keys
// queries with the given payload volume.
func (s *CachedSource) account(keys int, bytes int64) {
	s.remoteQueries.Add(int64(keys))
	s.remoteTrips.Add(1)
	s.remoteBytes.Add(bytes)
}

// BatchSize returns the keys one batched round trip carries at most —
// also the length of the task window the runtimes prefetch start
// vertices over.
func (s *CachedSource) BatchSize() int { return s.opts.BatchSize }

// frontierBudgetDiv bounds a window's first-level frontier: its keys,
// each charged what the cache will charge it — the entry overhead plus
// this source's mean bytes per fetched list — may claim at most
// capacity/frontierBudgetDiv; tasks past the cut keep their per-task ENU
// batch. The bound only bites where a window is a large share of the
// cache, and there it must: a frontier that large sweeps out its own
// window before the tasks read it. Triangle, one thread over two TCP
// nodes, cache a quarter of the graph; bytes fetched relative to prefetch
// off, store trips in brackets (docs/PERFORMANCE.md, "Trips that scale
// with windows", has the table's provenance):
//
//	N       start window only  unbounded        1/8             1/16
//	2 000   +1.21 % [1 621]    +12.01 % [604]   +2.43 % [1 094] +1.63 % [1 346]
//	4 000   +0.45 % [3 256]    +4.91 % [676]    +2.57 % [1 357] +1.33 % [2 146]
//	14 000  +0.57 % [11 489]   +2.28 % [1 229]  same            +2.26 % [1 325]
//	40 000  +0.12 % [33 073]   +0.59 % [2 445]  same            same
//
// 1/8 breaks TestWindowPrefetchOverTCP's 2 % byte bound at N 4 000; 1/16
// holds it and still cuts a third of the trips there.
const frontierBudgetDiv = 16

// PrefetchWindow is the task-window prefetch both runtimes share, over
// the next n tasks a machine will run (task(i) is the i-th). Two batched
// phases replace what were per-task trips:
//
// The start vertices go to Prefetch as one set (equal neighbours — the
// subtasks of one split vertex — count once), so a window costs one batch
// per partition where every task used to open with a single-key miss.
//
// Then, when e's program has a start-list-determined first level
// (Program.frontierPC), the window's tasks are walked in order: each resident start list is read off the books
// (cache.Peek: no hit counted, no prefetched mark consumed, no reference
// bit — the demand read still to come is the one the CLOCK rule and the
// coverage metric see), e computes the task's first-level candidates from
// it, and the uncached ones join the frontier until frontierBudgetDiv
// says stop. The frontier, sorted and de-duplicated, goes to Prefetch
// too. A covered task's own ENU batch then finds everything resident and
// makes no trip; a task past the cut, or whose start list is not
// resident, fetches its batch as it always did.
//
// Both fetches are speculative: their errors are dropped here — Prefetch
// has counted them — and never fail a pop, a task attempt or a retry
// budget. e is idle between tasks (the popping thread's executor, or the
// dispatcher's own); nil skips the second phase. A source without
// prefetch fetches no window, and neither does one without a cache: there
// is nowhere to install it.
func (s *CachedSource) PrefetchWindow(e *Executor, n int, task func(i int) Task) {
	if !s.opts.Prefetch || s.capacity <= 0 {
		return
	}
	p := graph.BorrowInts()
	vs := (*p)[:0]
	for i := 0; i < n; i++ {
		if v := task(i).Start; len(vs) == 0 || vs[len(vs)-1] != v {
			vs = append(vs, v)
		}
	}
	_ = s.Prefetch(vs) // the demand path re-fetches and surfaces it
	if e != nil && e.prog.frontierPC >= 0 {
		vs = s.appendFrontier(vs[:0], e, n, task)
		slices.Sort(vs)
		_ = s.Prefetch(slices.Compact(vs))
	}
	*p = vs
	graph.ReturnInts(p)
}

// appendFrontier appends to dst the uncached first-level candidates of
// the window's tasks, in task order, until the frontier budget is spent.
//
//benulint:hotpath the frontier walk: once per window, one pass per task over its start list, pooled scratch only
func (s *CachedSource) appendFrontier(dst []int64, e *Executor, n int, task func(i int) Task) []int64 {
	perKey := int64(cache.EntryOverhead)
	if q := s.remoteQueries.Load(); q > 0 {
		perKey += s.remoteBytes.Load() / q
	}
	maxKeys := int(s.capacity / frontierBudgetDiv / perKey)
	p := graph.BorrowInts()
	buf := (*p)[:0]
	for i := 0; i < n && len(dst) < maxKeys; i++ {
		t := task(i)
		adj, list, ok := s.cache.Peek(t.Start)
		if !ok {
			continue
		}
		if !list.IsZero() {
			// Installed by PutList, so validated: the decode cannot fail.
			buf, _ = list.AppendDecoded(buf[:0])
			adj = buf
		}
		// Candidates land behind dst and are filtered in place.
		mark := len(dst)
		dst = e.AppendFrontier(dst, t, adj)
		dst = s.cache.AppendMissing(dst[:mark], dst[mark:])
	}
	*p = buf
	graph.ReturnInts(p)
	return dst
}

// Prefetch batch-fetches the uncached keys of vs into the cache ahead of
// demand, inline, and returns the first batch error. It fetches whatever
// SourceOptions.Prefetch says: that switch decides whether executors and
// PrefetchWindow call it. A disabled cache makes prefetch pointless
// (nothing can be installed), so it becomes a no-op.
func (s *CachedSource) Prefetch(vs []int64) error {
	if s.capacity <= 0 || len(vs) == 0 {
		return nil
	}
	// The uncached-key filter runs once per set, into pooled scratch, so
	// steady-state prefetching allocates nothing.
	p := graph.BorrowInts()
	s.so.scratchUses.Inc()
	need := s.cache.AppendMissing((*p)[:0], vs)
	var err error
	for off := 0; off < len(need) && err == nil; off += s.opts.BatchSize {
		err = s.fetchBatch(need[off:min(off+s.opts.BatchSize, len(need))])
	}
	*p = need
	graph.ReturnInts(p)
	return err
}

// fetchBatch fetches one batch of keys in a single batched store round
// trip and installs the results. Keys already in flight are skipped (the
// flight leader will install them), as are keys a flight has installed
// since the caller looked (see fetchOne); this fetch leads a flight for
// every remaining key so demand misses dedup against the prefetch. The
// install honors the store contract: on error nothing is installed (the
// store returned no partial results to install) and the batch is counted
// in source.prefetch.errors.
func (s *CachedSource) fetchBatch(keys []int64) error {
	if err := s.ctxErr(); err != nil {
		return err
	}
	mp := graph.BorrowInts()
	fp := flightScratch.Get().(*[]*flight)
	s.so.scratchUses.Inc()
	mine := (*mp)[:0]
	fls := (*fp)[:0]
	release := func() {
		*mp = mine
		graph.ReturnInts(mp)
		for i := range fls {
			fls[i] = nil // drop flight refs before pooling
		}
		*fp = fls
		flightScratch.Put(fp)
	}
	s.mu.Lock()
	for _, v := range keys {
		if _, ok := s.flights[v]; ok || s.cache.Contains(v) {
			continue // in flight, or installed since the caller filtered keys
		}
		fl := &flight{done: make(chan struct{})}
		s.flights[v] = fl
		mine = append(mine, v)
		fls = append(fls, fl)
	}
	s.mu.Unlock()
	if len(mine) == 0 {
		release()
		return nil
	}
	s.so.batchSize.Record(int64(len(mine)))

	var err error
	if s.opts.Compact {
		var lists []graph.AdjList
		lists, err = s.store.GetAdjBatch(mine)
		if err == nil {
			var bytes, saved int64
			for i, l := range lists {
				fls[i].list = l
				bytes += l.SizeBytes()
				saved += int64(l.Len())*8 - l.SizeBytes()
				s.cache.PutList(mine[i], l)
			}
			s.account(len(mine), bytes)
			s.so.bytesSaved.Add(saved)
		}
	} else {
		var adjs [][]int64
		adjs, err = kv.BatchGetAdj(s.store, mine)
		if err == nil {
			var bytes int64
			for i, adj := range adjs {
				fls[i].adj = adj
				bytes += int64(len(adj)) * 8
				s.cache.Put(mine[i], adj)
			}
			s.account(len(mine), bytes)
		}
	}
	if err != nil {
		s.so.pfErrors.Inc()
		for _, fl := range fls {
			fl.err = err
		}
	} else {
		s.markPrefetched(mine)
	}
	for i, fl := range fls {
		s.complete(mine[i], fl)
	}
	release()
	return err
}

// flightScratch pools the per-batch flight-pointer scratch of fetchBatch
// (the key scratch rides the shared graph int64 pool).
var flightScratch = sync.Pool{New: func() any {
	s := make([]*flight, 0, defaultBatchSize)
	return &s
}}

// markPrefetched flags keys installed ahead of demand for the coverage
// metric (source.prefetch.used counts the ones a demand query later
// reads, via the cache's OnPrefetchUse hook).
func (s *CachedSource) markPrefetched(keys []int64) {
	s.cache.MarkPrefetched(keys)
	s.so.pfInstalled.Add(int64(len(keys)))
}

// Cache exposes the underlying DB cache (for stats).
func (s *CachedSource) Cache() *cache.LRU { return s.cache }

// RemoteQueries returns the number of keys fetched from the store (cache
// misses and prefetched keys; deduplicated fetches count once).
func (s *CachedSource) RemoteQueries() int64 { return s.remoteQueries.Load() }

// RemoteBytes returns the bytes fetched from the store: 8 per adjacency
// entry raw, the encoded size in compact mode.
func (s *CachedSource) RemoteBytes() int64 { return s.remoteBytes.Load() }

// RemoteTrips returns the number of store calls this source issued (a
// batched fetch of k keys is one trip).
func (s *CachedSource) RemoteTrips() int64 { return s.remoteTrips.Load() }
