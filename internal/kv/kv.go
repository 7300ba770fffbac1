// Package kv implements the distributed key-value database BENU stores
// the data graph in (the paper uses HBase; we build the store from
// scratch). Keys are data-vertex ids, values are adjacency sets.
//
// One interface, many backends. Store is the storage SPI: every backend
// serves batches of compact varint-delta graph.AdjList payloads — the
// wire and cache format of the adjacency data plane — plus the global
// vertex count. Everything else (single-key reads, raw []int64 sets)
// is an adapter over that one method, not a backend obligation:
//
//   - Local: a wrapper over an in-memory graph, for single-process runs
//     and tests. Queries are still metered so communication-cost
//     experiments work without sockets.
//   - MapStore: an explicit vertex→adjacency map — the storage-node side
//     of a partitioned deployment.
//   - Partitioned: hash-partitions vertices over several Stores, with
//     optional replica sets per partition and breaker-driven failover
//     (replicated.go).
//   - Disk: an immutable mmap'd CSR file built by `benu-store build`,
//     served zero-copy (disk.go / internal/csr).
//   - TCP server/client (server.go): a real networked store speaking the
//     length-prefixed binary wire of wire.go on pooled connections, used
//     by the distributed example, the networked control plane, and
//     integration tests.
//   - Mutable: an updatable store for dynamic-graph queries (mutable.go).
//
// Decorators compose over any backend: Observed (latency histograms),
// Resilient (retries + circuit breaker), Faulty (fault injection).
// Capability probes are the composition mechanism — ContextBinder lets
// a caller rebind a run-scoped context down a decorator chain without
// knowing which concrete decorator it holds (see WithContext).
//
// Error semantics, uniform across every backend: batched reads are
// FAIL-FAST with NO PARTIAL RESULTS. If any key of a batch fails, the
// call returns (nil, err) — never a partially filled slice — so callers
// can install results into caches without checking per-key validity.
package kv

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"benu/internal/graph"
)

// Store is the storage SPI: it serves compact adjacency lists by vertex
// id, several keys per round trip. This is the only interface a backend
// implements; single-key and raw reads are package-level adapters
// (GetAdj, BatchGetAdj).
//
// Implementations must be safe for concurrent use: every worker thread
// of every machine queries the store directly.
type Store interface {
	// GetAdjBatch returns the compact adjacency lists of vs, parallel to
	// vs, each sorted ascending. The caller must treat results as
	// immutable (backends share their storage). On error the result is
	// nil (fail-fast, no partial results).
	GetAdjBatch(vs []int64) ([]graph.AdjList, error)
	// NumVertices returns the number of vertices in the stored graph.
	NumVertices() int
}

// ContextBinder is the capability probe for decorators that scope their
// work to a context (today: Resilient, whose retries and attempt
// deadlines are bounded by it). Callers rebind through the package-level
// WithContext, which degrades to a no-op on stores without the
// capability.
type ContextBinder interface {
	Store
	// WithContext returns a copy of the store bound to ctx. The copy
	// shares all backend state (connections, breakers, metrics); only
	// the cancellation scope changes.
	WithContext(ctx context.Context) Store
}

// WithContext rebinds a run-scoped context into s if it has the
// ContextBinder capability, and returns s unchanged otherwise. This is
// how the cluster runtime scopes store retries to a run without
// type-switching on concrete decorators.
func WithContext(s Store, ctx context.Context) Store {
	if cb, ok := s.(ContextBinder); ok {
		return cb.WithContext(ctx)
	}
	return s
}

// GetAdj is the single-key adapter: it fetches one adjacency set through
// the batched SPI and decodes it. The result is freshly decoded and
// owned by the caller.
func GetAdj(s Store, v int64) ([]int64, error) {
	lists, err := s.GetAdjBatch([]int64{v})
	if err != nil {
		return nil, err
	}
	adj, err := lists[0].Decode()
	if err != nil {
		return nil, fmt.Errorf("kv: decode adjacency of %d: %w", v, err)
	}
	return adj, nil
}

// BatchGetAdj is the raw batched adapter: compact lists fetched through
// the SPI and decoded to []int64 sets, parallel to vs. Same fail-fast,
// no-partial-results contract as the SPI itself.
func BatchGetAdj(s Store, vs []int64) ([][]int64, error) {
	lists, err := s.GetAdjBatch(vs)
	if err != nil {
		return nil, err
	}
	out := make([][]int64, len(lists))
	for i, l := range lists {
		if out[i], err = l.Decode(); err != nil {
			return nil, fmt.Errorf("kv: decode adjacency of %d: %w", vs[i], err)
		}
	}
	return out, nil
}

// Metrics counts store traffic. All fields are manipulated atomically.
//
// Queries counts requested keys (one per vertex, batched or not), Trips
// counts store round trips (a batch of k keys is k queries but one
// trip), and Bytes is the compact payload volume (AdjList.SizeBytes).
type Metrics struct {
	queries atomic.Int64
	trips   atomic.Int64
	bytes   atomic.Int64
}

// RecordBatch notes one batched round trip serving keys queries with the
// given payload volume.
func (m *Metrics) RecordBatch(keys int, bytes int64) {
	m.queries.Add(int64(keys))
	m.trips.Add(1)
	m.bytes.Add(bytes)
}

// Queries returns the number of keys served.
func (m *Metrics) Queries() int64 { return m.queries.Load() }

// Trips returns the number of store round trips (batch-aware).
func (m *Metrics) Trips() int64 { return m.trips.Load() }

// Bytes returns the total bytes transferred for recorded queries.
func (m *Metrics) Bytes() int64 { return m.bytes.Load() }

// Reset zeroes the counters.
func (m *Metrics) Reset() {
	m.queries.Store(0)
	m.trips.Store(0)
	m.bytes.Store(0)
}

// Local is a Store over an in-memory graph. It stands in for a database
// node colocated with the data; queries are metered but free of network
// cost.
type Local struct {
	g       *graph.Graph
	metrics Metrics

	compactOnce sync.Once
	compact     *graph.CompactAdjacency
}

// NewLocal stores g in a Local store.
func NewLocal(g *graph.Graph) *Local { return &Local{g: g} }

// NumVertices implements Store.
func (s *Local) NumVertices() int { return s.g.NumVertices() }

// Metrics exposes the store's traffic counters.
func (s *Local) Metrics() *Metrics { return &s.metrics }

// GetAdjBatch implements Store. The compact index is built once, on
// first use (the graph is immutable), so reads are zero-copy.
func (s *Local) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	s.compactOnce.Do(func() { s.compact = graph.NewCompactAdjacency(s.g) })
	out := make([]graph.AdjList, len(vs))
	var bytes int64
	for i, v := range vs {
		if v < 0 || int(v) >= s.g.NumVertices() {
			return nil, fmt.Errorf("kv: vertex %d out of range [0,%d)", v, s.g.NumVertices())
		}
		out[i] = s.compact.List(v)
		bytes += out[i].SizeBytes()
	}
	s.metrics.RecordBatch(len(vs), bytes)
	return out, nil
}

// Shard extracts the subgraph adjacency data for partition i of p from g:
// a map from each owned vertex to its full adjacency set.
func Shard(g *graph.Graph, i, p int) map[int64][]int64 {
	out := make(map[int64][]int64)
	for v := 0; v < g.NumVertices(); v++ {
		if v%p == i {
			out[int64(v)] = g.Adj(int64(v))
		}
	}
	return out
}

// MapStore is a Store over an explicit vertex→adjacency map; the storage
// node side of a partitioned deployment.
type MapStore struct {
	data    map[int64][]int64
	n       int
	metrics Metrics

	compactOnce sync.Once
	compact     map[int64]graph.AdjList
}

// NewMapStore wraps data as a store. n is the global vertex count.
func NewMapStore(data map[int64][]int64, n int) *MapStore {
	return &MapStore{data: data, n: n}
}

// NumVertices implements Store.
func (s *MapStore) NumVertices() int { return s.n }

// Metrics exposes the store's traffic counters.
func (s *MapStore) Metrics() *Metrics { return &s.metrics }

// GetAdjBatch implements Store; the per-vertex encodings are built once
// on first use (the stored data is immutable).
func (s *MapStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	s.compactOnce.Do(func() {
		s.compact = make(map[int64]graph.AdjList, len(s.data))
		for v, adj := range s.data {
			s.compact[v] = graph.EncodeAdjList(adj)
		}
	})
	out := make([]graph.AdjList, len(vs))
	var bytes int64
	for i, v := range vs {
		l, ok := s.compact[v]
		if !ok {
			return nil, fmt.Errorf("kv: vertex %d not stored in this partition", v)
		}
		out[i] = l
		bytes += l.SizeBytes()
	}
	s.metrics.RecordBatch(len(vs), bytes)
	return out, nil
}
