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
// partition once — Partitioned one after another (its partitions are
// in-process), the Client all at once (gather). The grouping runs on
// every executor thread's hot path, so its buckets come from a per-store
// sync.Pool instead of being rebuilt per call, and the single-key case (a
// cache demand miss) bypasses the buckets entirely — zero allocations
// steady-state, enforced by the AllocsPerRun tests in alloc_test.go.

// routeScratch is the reusable per-call state of one routed batch: one
// keys and one positions bucket per partition.
type routeScratch struct {
	keys [][]int64
	idxs [][]int
}

func newRouteScratch(np int) routeScratch {
	return routeScratch{keys: make([][]int64, np), idxs: make([][]int, np)}
}

// group buckets the positions of vs by owning partition (v mod the bucket
// count), in input order; n bounds valid vertex ids.
func (sc *routeScratch) group(n int, vs []int64) error {
	np := len(sc.keys)
	for i, v := range vs {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("kv: vertex %d out of range [0,%d)", v, n)
		}
		p := int(v) % np
		sc.keys[p] = append(sc.keys[p], v)
		sc.idxs[p] = append(sc.idxs[p], i)
	}
	return nil
}

// reset empties the buckets, keeping their capacity for the next batch.
func (sc *routeScratch) reset() {
	for p := range sc.keys {
		sc.keys[p] = sc.keys[p][:0]
		sc.idxs[p] = sc.idxs[p][:0]
	}
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
		rs := newRouteScratch(np)
		sc = &rs
	}
	defer func() {
		sc.reset()
		scratch.Put(sc)
	}()
	if err := sc.group(n, vs); err != nil {
		return err
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

// GetAdjBatch implements Store for the TCP client. A single key — the
// cache demand miss — is one round trip to its partition. Anything longer
// is grouped by owning partition and travels scatter-then-gather: every
// partition's request is written before any reply is read, so the
// partitions work at once and the batch waits for the slowest of them,
// not for their sum (in maxBatchKeys slices of the input, should a batch
// ever exceed one request frame). Fail-fast: a failing leg fails the
// whole batch with a nil result. Received payloads are validated once,
// in decodeReply, so downstream lazy decodes cannot fail on corrupt
// bytes.
func (c *Client) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	out := make([]graph.AdjList, len(vs))
	var err error
	if len(vs) == 1 {
		err = routeOne(len(c.pools), c.n, vs, func(p int, keys []int64, idxs []int) error {
			return c.callPart(p, keys, idxs, out)
		})
	} else {
		for off := 0; off < len(vs) && err == nil; off += maxBatchKeys {
			end := min(len(vs), off+maxBatchKeys)
			err = c.getMulti(vs[off:end], out[off:end])
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// callPart is one sequential, recorded round trip to partition p through
// call: the single-key path, and what a batch falls back to when its
// gather hits a transport failure.
func (c *Client) callPart(p int, keys []int64, idxs []int, out []graph.AdjList) error {
	bytes, err := c.call(p, keys, idxs, out)
	if err != nil {
		return fmt.Errorf("kv: batch get from %s: %w", c.addrs[p], err)
	}
	c.metrics.RecordBatch(len(keys), bytes)
	return nil
}

// clientScratch is the pooled per-call state of one multi-key client
// batch: the partition grouping, and the connection out to each
// partition between the batch's scatter and its gather.
type clientScratch struct {
	routeScratch
	conns []*wireConn
}

// getMulti serves one batch of 2..maxBatchKeys keys into out. The gather
// owns the healthy case and a ServerError; a transport failure on any leg
// (a pooled connection a node restart severed, a node that is down, a
// reply that is not one) re-runs the batch one partition at a time
// through call, which owns flush-and-redial-once — reads are idempotent.
func (c *Client) getMulti(vs []int64, out []graph.AdjList) error {
	sc, _ := c.scratch.Get().(*clientScratch)
	if sc == nil {
		np := len(c.pools)
		sc = &clientScratch{routeScratch: newRouteScratch(np), conns: make([]*wireConn, np)}
	}
	defer func() {
		sc.reset()
		c.scratch.Put(sc)
	}()
	if err := sc.group(c.n, vs); err != nil {
		return err
	}
	p, err := c.gather(sc, out)
	if err == nil {
		return nil
	}
	if isServerError(err) {
		return fmt.Errorf("kv: batch get from %s: %w", c.addrs[p], err)
	}
	for p, keys := range sc.keys {
		if len(keys) == 0 {
			continue
		}
		if err := c.callPart(p, keys, sc.idxs[p], out); err != nil {
			return err
		}
	}
	return nil
}

// gather is the healthy path of a multi-key batch: take a connection per
// partition and write every request, then read and decode the replies in
// partition order — on the calling thread, each connection still owned
// by this one call, so there is no goroutine and no request id. It
// returns the first failing partition and its error, a transport failure
// taking precedence over a ServerError (the caller retries the former).
// No connection is left out on return: a failed scatter closes every
// connection taken so far (each has a request in flight); in the gather a
// leg that answered, a ServerError included, parks its connection in
// sync, and only a leg whose transport or framing failed is closed.
//
//benulint:hotpath every window and ENU-stage prefetch batch of every executor thread
func (c *Client) gather(sc *clientScratch, out []graph.AdjList) (int, error) {
	for p, keys := range sc.keys {
		if len(keys) == 0 {
			continue
		}
		wc, _, err := c.pools[p].get()
		if err == nil {
			sc.conns[p] = wc
			err = wc.send(keys)
		}
		if err != nil {
			for q, wc := range sc.conns {
				if wc != nil {
					wc.conn.Close()
					sc.conns[q] = nil
				}
			}
			return p, err
		}
	}
	failed := -1
	var first error
	for p, wc := range sc.conns {
		if wc == nil {
			continue
		}
		sc.conns[p] = nil
		bytes, err := wc.receive(sc.idxs[p], out)
		answered := err == nil || isServerError(err)
		if answered {
			c.pools[p].put(wc)
		} else {
			wc.conn.Close()
		}
		switch {
		case err == nil:
			c.metrics.RecordBatch(len(sc.idxs[p]), bytes)
		case first == nil || !answered && isServerError(first):
			failed, first = p, err
		}
	}
	return failed, first
}
