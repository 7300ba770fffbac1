package kv

import (
	"fmt"
	"sync"

	"benu/internal/graph"
	"benu/internal/obs"
	"benu/internal/resilience"
)

// Partitioned hash-partitions vertex ids across several stores, the way
// a distributed table spreads regions across region servers, with
// optionally N replicas per partition. Partition of v is
// v mod len(parts); within a partition, reads fan out over the replica
// set deterministically (the vertex slot picks the preferred replica, so
// load spreads without randomness) and fail over to the next replica
// when one is down — the replica-read robustness "Fast and Robust
// Distributed Subgraph Enumeration" argues for.
//
// Failover is breaker-driven: each replica carries its own circuit
// breaker, a replica whose breaker is open is skipped without paying a
// call, and outcomes feed the breaker back. Errors are discriminated the
// same way the TCP client discriminates them — an application-level
// error (the remote handler rejected the key) or a permanent/context
// error would be returned by every replica alike, so it fails the read
// immediately instead of burning the replica set.
type Partitioned struct {
	replicas [][]Store
	n        int
	// scratch pools per-partition routing buffers (see routeBatch).
	scratch sync.Pool
	// brks[p][r] is replica r of partition p's breaker; nil (the whole
	// slice or an entry) means no breaking for that replica.
	brks [][]*resilience.Breaker

	// Replica-read counters, nil on plain single-replica stores:
	// store.replica.reads / failovers / skipped / exhausted.
	reads     *obs.Counter
	failovers *obs.Counter
	skipped   *obs.Counter
	exhausted *obs.Counter
}

// NewPartitioned builds a partitioned store over the given parts, one
// replica each. Each part must hold the adjacency sets for the vertex
// ids congruent to its index (see Shard).
func NewPartitioned(parts []Store, numVertices int) *Partitioned {
	replicas := make([][]Store, len(parts))
	for i, p := range parts {
		replicas[i] = []Store{p}
	}
	return &Partitioned{replicas: replicas, n: numVertices}
}

// ReplicatedOptions configures NewReplicated.
type ReplicatedOptions struct {
	// Breaker configures the per-replica circuit breakers; zero fields
	// take resilience defaults (5 consecutive failures, 100ms cooldown).
	Breaker resilience.BreakerConfig
	// DisableBreaker fails over on errors only, without circuit
	// breaking (every replica is always probed).
	DisableBreaker bool
	// Obs is the registry the store.replica.* counters and breaker
	// metrics report into (nil means obs.Default()).
	Obs *obs.Registry
}

// NewReplicated builds a partitioned store with an explicit replica set
// per partition: replicas[p] lists the stores holding partition p, each
// a complete copy of that partition. Every partition needs at least one
// replica.
func NewReplicated(replicas [][]Store, numVertices int, opts ReplicatedOptions) (*Partitioned, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("kv: replicated store needs at least one partition")
	}
	for p, reps := range replicas {
		if len(reps) == 0 {
			return nil, fmt.Errorf("kv: partition %d has no replicas", p)
		}
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	s := &Partitioned{
		replicas:  replicas,
		n:         numVertices,
		reads:     reg.Counter("store.replica.reads"),
		failovers: reg.Counter("store.replica.failovers"),
		skipped:   reg.Counter("store.replica.skipped"),
		exhausted: reg.Counter("store.replica.exhausted"),
	}
	if !opts.DisableBreaker {
		s.brks = make([][]*resilience.Breaker, len(replicas))
		for p, reps := range replicas {
			s.brks[p] = make([]*resilience.Breaker, len(reps))
			for r := range reps {
				s.brks[p][r] = resilience.NewBreaker(opts.Breaker, reg)
			}
		}
	}
	return s, nil
}

// Replicated reports whether any partition has more than one replica.
func (s *Partitioned) Replicated() bool {
	for _, reps := range s.replicas {
		if len(reps) > 1 {
			return true
		}
	}
	return false
}

// NumVertices implements Store.
func (s *Partitioned) NumVertices() int { return s.n }

// GetAdjBatch implements Store: keys are grouped by owning partition and
// each partition group is served by its replica set. Fail-fast: any
// partition error fails the whole batch with no partial results.
func (s *Partitioned) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	out := make([]graph.AdjList, len(vs))
	err := routeBatch(&s.scratch, len(s.replicas), s.n, vs, func(p int, keys []int64, idxs []int) error {
		lists, err := s.servePart(p, keys)
		if err != nil {
			return err
		}
		for j, i := range idxs {
			out[i] = lists[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// servePart reads one partition group from the partition's replica set.
// The preferred replica is the key's slot mod the replica count —
// deterministic, and spreading single-key demand misses across replicas.
// Replicas are tried in ring order from there; an open breaker skips the
// replica without a call, a retryable failure records into the breaker
// and moves on, and a non-retryable one returns immediately.
func (s *Partitioned) servePart(p int, keys []int64) ([]graph.AdjList, error) {
	reps := s.replicas[p]
	nr := len(reps)
	if nr == 1 && s.reads == nil {
		// Plain partitioned store: no replica bookkeeping to pay for.
		return reps[0].GetAdjBatch(keys)
	}
	r0 := int(keys[0]/int64(len(s.replicas))) % nr
	var lastErr error
	for k := 0; k < nr; k++ {
		r := (r0 + k) % nr
		var brk *resilience.Breaker
		if s.brks != nil {
			brk = s.brks[p][r]
		}
		if err := brk.Allow(); err != nil {
			count(s.skipped)
			lastErr = err
			continue
		}
		lists, err := reps[r].GetAdjBatch(keys)
		brk.Record(err)
		if err == nil {
			count(s.reads)
			return lists, nil
		}
		if !replicaRetryable(err) {
			return nil, err
		}
		count(s.failovers)
		lastErr = err
	}
	count(s.exhausted)
	return nil, fmt.Errorf("kv: all %d replicas of partition %d failed: %w", nr, p, lastErr)
}

// replicaRetryable reports whether another replica might succeed where
// this one failed. Application-level errors from a remote handler
// (ServerError: the round trip worked, the key was rejected) and
// permanent or caller-cancellation errors would repeat on every replica,
// so they are not worth a failover.
func replicaRetryable(err error) bool {
	return !isServerError(err) && resilience.DefaultRetryable(err)
}

// count increments a possibly-nil counter (plain partitioned stores
// carry none).
func count(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}
