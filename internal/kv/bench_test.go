package kv

import (
	"testing"

	"benu/internal/gen"
)

// BenchmarkTCPTrip is the store round trip over one loopback node:
// Client.GetAdjBatch → frame → socket → Server.serveConn → MapStore and
// back. b1 is what every DB cache demand miss pays, b64 a full prefetch
// batch, and b64-parallel the same batch from GOMAXPROCS goroutines at
// once, each on its own pooled connection (the pool's and the node's
// scaling: ns/op is wall per batch across all goroutines).
func BenchmarkTCPTrip(b *testing.B) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 4000, EdgesPer: 3, Triad: 0.1, Seed: 7})
	srv, err := Serve("127.0.0.1:0", NewMapStore(Shard(g, 0, 1), g.NumVertices()))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial([]string{srv.Addr()}, g.NumVertices())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	keys := make([]int64, 1<<12)
	for i := range keys {
		keys[i] = int64(i * 37 % g.NumVertices())
	}
	trip := func(i, batch int) error {
		at := i * batch & (len(keys) - 1)
		_, err := client.GetAdjBatch(keys[at : at+batch])
		return err
	}

	b.Run("b1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := trip(i, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("b64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := trip(i, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("b64-parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if err := trip(i, 64); err != nil {
					b.Error(err) // not Fatal: this is not the benchmark's goroutine
					return
				}
			}
		})
	})
}
