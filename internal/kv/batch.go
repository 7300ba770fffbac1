package kv

import (
	"fmt"
	"sync"

	"benu/internal/graph"
)

// Batched reads and request routing. The paper's implementation queries
// HBase at adjacency-set granularity to amortize per-query latency
// (§III-B); batching multiple vertex keys into one round trip amortizes
// it further when a caller knows several keys up front (the ENU-stage
// prefetcher, cache warm-up). The wire and storage currency is the
// compact varint-delta graph.AdjList — typically 4-8x smaller than raw
// int64s on power-law graphs.
//
// Both multi-node stores (Partitioned and the TCP Client) route a batch
// the same way: group request positions by owning partition, ask each
// partition once. The grouping runs on every executor thread's hot
// path, so its buckets come from a per-store sync.Pool instead of being
// rebuilt per call, and the single-key case (a cache demand miss)
// bypasses the buckets entirely — zero allocations steady-state,
// enforced by the AllocsPerRun tests in alloc_test.go.

// routeScratch is the reusable per-call state of routeBatch: one keys
// and one positions bucket per partition.
type routeScratch struct {
	keys [][]int64
	idxs [][]int
}

// oneIdx is the positions slice of every single-key route: the key is at
// position 0. Shared and read-only.
var oneIdx = []int{0}

// routeBatch groups request positions by owning partition (v mod np) and
// serves each group with one call, ascending by partition
// (deterministic, where a map grouping would visit partitions in random
// order). n bounds valid vertex ids; scratch pools *routeScratch
// buckets. serve callbacks must not retain or mutate keys/idxs past
// their return — both may be pooled or caller-owned memory.
//
// Single-key batches — the cache demand-miss path — skip the bucket
// machinery: the caller's own slice is the key group.
func routeBatch(scratch *sync.Pool, np, n int, vs []int64, serve func(p int, keys []int64, idxs []int) error) error {
	if len(vs) == 1 {
		return routeOne(np, n, vs, serve)
	}
	sc, _ := scratch.Get().(*routeScratch)
	if sc == nil || len(sc.keys) != np {
		sc = &routeScratch{keys: make([][]int64, np), idxs: make([][]int, np)}
	}
	defer func() {
		for p := 0; p < np; p++ {
			sc.keys[p] = sc.keys[p][:0]
			sc.idxs[p] = sc.idxs[p][:0]
		}
		scratch.Put(sc)
	}()
	for i, v := range vs {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("kv: vertex %d out of range [0,%d)", v, n)
		}
		p := int(v) % np
		sc.keys[p] = append(sc.keys[p], v)
		sc.idxs[p] = append(sc.idxs[p], i)
	}
	for p := 0; p < np; p++ {
		if len(sc.idxs[p]) == 0 {
			continue
		}
		if err := serve(p, sc.keys[p], sc.idxs[p]); err != nil {
			return err
		}
	}
	return nil
}

// routeOne serves a single-key batch — the cache demand-miss path —
// without touching the bucket machinery: the caller's own slice is the
// key group and the shared oneIdx is its position list.
//
//benulint:hotpath single-key routing runs on every cache demand miss; zero-alloc per alloc_test.go
func routeOne(np, n int, vs []int64, serve func(p int, keys []int64, idxs []int) error) error {
	v := vs[0]
	if v < 0 || int(v) >= n {
		//benulint:alloc cold path: an invalid vertex id aborts the batch
		return fmt.Errorf("kv: vertex %d out of range [0,%d)", v, n)
	}
	return serve(int(v)%np, vs, oneIdx)
}

// GetAdjBatch implements Store for the TCP client: keys are grouped by
// owning partition and each partition is asked once (in maxBatchKeys
// slices, should a group ever exceed one request frame). Fail-fast: the
// first failing round trip fails the whole batch with a nil result.
// Received payloads are validated once, in decodeReply, so downstream
// lazy decodes cannot fail on corrupt bytes.
func (c *Client) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	out := make([]graph.AdjList, len(vs))
	err := c.routeBatch(vs, func(p int, keys []int64, idxs []int) error {
		for len(keys) > 0 {
			k := min(len(keys), maxBatchKeys)
			bytes, err := c.call(p, keys[:k], idxs[:k], out)
			if err != nil {
				return fmt.Errorf("kv: batch get from %s: %w", c.addrs[p], err)
			}
			c.metrics.RecordBatch(k, bytes)
			keys, idxs = keys[k:], idxs[k:]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// routeBatch routes one batch over the client's storage nodes through
// the shared pooled router.
func (c *Client) routeBatch(vs []int64, serve func(p int, keys []int64, idxs []int) error) error {
	return routeBatch(&c.scratch, len(c.pools), c.n, vs, serve)
}
