package cache

import (
	"math/rand"
	"testing"
)

// hotCache is a cache-resident working set and a skewed probe sequence:
// most reads land on a few hubs, as an enumeration's do.
func hotCache() (*LRU, []int64) {
	const keys = 1 << 12
	c := NewLRU(1 << 30)
	for k := int64(0); k < keys; k++ {
		c.Put(k, make([]int64, 8))
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 4, keys-1)
	probes := make([]int64, 1<<16)
	for i := range probes {
		probes[i] = int64(zipf.Uint64())
	}
	return c, probes
}

// BenchmarkCacheGet is the single-goroutine hit: the floor the parallel
// twin is read against.
func BenchmarkCacheGet(b *testing.B) {
	c, probes := hotCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(probes[i&(len(probes)-1)]) // counts the hit: not removable
	}
}

// BenchmarkCacheGetParallel is the same hit from GOMAXPROCS goroutines on
// one cache, all reading the same hubs. Run with -cpu 1,2,4,8: ns/op is
// wall per hit across all goroutines, so a lock-free read path keeps it
// falling as CPUs are added and a shared lock or a shared write per hit
// makes it rise. Give -benchtime as a duration: with a fixed count
// RunParallel sizes its work grain off the one-iteration probe run, and the
// goroutines then contend on the harness's own iteration counter.
func BenchmarkCacheGetParallel(b *testing.B) {
	c, probes := hotCache()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := rand.Int(); pb.Next(); i++ {
			c.Get(probes[i&(len(probes)-1)])
		}
	})
}
