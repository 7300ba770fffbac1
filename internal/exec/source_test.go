package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
)

func TestCachedSourceHitMissAccounting(t *testing.T) {
	g := gen.DemoDataGraph()
	src := NewCachedSource(kv.NewLocal(g), g.SizeBytes()*2)
	// First read misses, second hits.
	a1, err := src.GetAdj(0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := src.GetAdj(0)
	if err != nil {
		t.Fatal(err)
	}
	if &a1[0] != &a2[0] {
		t.Error("second read did not come from the cache")
	}
	if src.RemoteQueries() != 1 {
		t.Errorf("remote queries = %d, want 1", src.RemoteQueries())
	}
	if src.RemoteBytes() != int64(len(a1))*8 {
		t.Errorf("remote bytes = %d", src.RemoteBytes())
	}
	st := src.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v", st)
	}
	if _, err := src.GetAdj(-1); err == nil {
		t.Error("invalid vertex accepted")
	}
}

func TestCachedSourceZeroCapacity(t *testing.T) {
	g := gen.DemoDataGraph()
	src := NewCachedSource(kv.NewLocal(g), 0)
	for i := 0; i < 3; i++ {
		if _, err := src.GetAdj(1); err != nil {
			t.Fatal(err)
		}
	}
	if src.RemoteQueries() != 3 {
		t.Errorf("remote queries = %d, want 3 (cache disabled)", src.RemoteQueries())
	}
}

// gateStore blocks every read until the gate opens, so a test can pile
// concurrent misses onto one key and count how many reach the store.
type gateStore struct {
	kv.Store
	gate  chan struct{}
	calls atomic.Int64
}

func (s *gateStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	s.calls.Add(1)
	<-s.gate
	return s.Store.GetAdjBatch(vs)
}

// The regression the single-flight table exists for: before it, two
// threads missing on the same key both queried the store and both counted
// the fetch, inflating RemoteQueries and the communication-cost
// experiments built on it. Now concurrent misses share one flight.
func TestCachedSourceSingleFlight(t *testing.T) {
	g := gen.DemoDataGraph()
	gs := &gateStore{Store: kv.NewLocal(g), gate: make(chan struct{})}
	src := NewCachedSource(gs, g.SizeBytes()*2)

	const readers = 8
	var wg sync.WaitGroup
	results := make([][]int64, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = src.GetAdj(1)
		}(i)
	}
	close(gs.gate) // release the leader; everyone else joins or hits cache
	wg.Wait()

	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if len(results[i]) != len(g.Adj(1)) {
			t.Fatalf("reader %d got %d entries, want %d", i, len(results[i]), len(g.Adj(1)))
		}
	}
	if n := gs.calls.Load(); n != 1 {
		t.Errorf("store saw %d queries for one key, want 1", n)
	}
	if src.RemoteQueries() != 1 {
		t.Errorf("remote queries = %d, want 1 (no double accounting)", src.RemoteQueries())
	}
}

// A flight whose leader fails must not poison the key: the failed flight
// leaves the table before its waiters wake, so the next read retries the
// store instead of replaying a stale error.
func TestCachedSourceFlightErrorRetry(t *testing.T) {
	g := gen.DemoDataGraph()
	f := kv.NewFaulty(kv.NewLocal(g))
	f.FailOnceAt = 1
	src := NewCachedSource(f, g.SizeBytes()*2)

	if _, err := src.GetAdj(0); !errors.Is(err, kv.ErrInjected) {
		t.Fatalf("first read: err = %v, want ErrInjected", err)
	}
	adj, err := src.GetAdj(0)
	if err != nil {
		t.Fatalf("second read after transient failure: %v", err)
	}
	if len(adj) != len(g.Adj(0)) {
		t.Errorf("second read returned %d entries, want %d", len(adj), len(g.Adj(0)))
	}
}

func TestCachedSourceSyncPrefetchTrips(t *testing.T) {
	g := gen.DemoDataGraph()
	reg := obs.NewRegistry()
	src := NewCachedSourceWith(kv.NewLocal(g), 1<<20, SourceOptions{
		BatchSize: 3,
		Obs:       reg,
	})
	keys := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	if err := src.Prefetch(keys); err != nil {
		t.Fatal(err)
	}
	if src.RemoteQueries() != int64(len(keys)) {
		t.Errorf("remote queries = %d, want %d", src.RemoteQueries(), len(keys))
	}
	if src.RemoteTrips() != 3 {
		t.Errorf("remote trips = %d, want 3 (8 keys / batches of 3)", src.RemoteTrips())
	}
	// Demand reads are now all hits; traffic does not move.
	for _, v := range keys {
		if _, err := src.GetAdj(v); err != nil {
			t.Fatal(err)
		}
	}
	if src.RemoteQueries() != int64(len(keys)) {
		t.Errorf("demand reads after prefetch went remote: queries = %d", src.RemoteQueries())
	}
	if got := reg.Counter("source.prefetch.installed").Value(); got != int64(len(keys)) {
		t.Errorf("prefetch.installed = %d, want %d", got, len(keys))
	}
	if got := reg.Counter("source.prefetch.used").Value(); got != int64(len(keys)) {
		t.Errorf("prefetch.used = %d, want %d (full coverage)", got, len(keys))
	}
	// A second prefetch of cached keys is free.
	if err := src.Prefetch(keys[:4]); err != nil {
		t.Fatal(err)
	}
	if src.RemoteTrips() != 3 {
		t.Errorf("prefetch of cached keys issued a trip: trips = %d", src.RemoteTrips())
	}
}

func TestCachedSourceSyncPrefetchFailFast(t *testing.T) {
	g := gen.DemoDataGraph()
	f := kv.NewFaulty(kv.NewLocal(g))
	f.FailOnceAt = 3
	src := NewCachedSourceWith(f, g.SizeBytes()*2, SourceOptions{Obs: obs.NewRegistry()})

	err := src.Prefetch([]int64{0, 1, 2, 3})
	if !errors.Is(err, kv.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Fail-fast means no partial installs: the store returned nothing, so
	// the cache holds nothing.
	if n := src.Cache().Len(); n != 0 {
		t.Errorf("cache holds %d entries after a failed batch, want 0", n)
	}
	if src.RemoteQueries() != 0 {
		t.Errorf("failed batch was accounted: queries = %d", src.RemoteQueries())
	}
}

func TestCachedSourceCompactMatchesRaw(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 200, EdgesPer: 4, Seed: 11})
	src := NewCachedSourceWith(kv.NewLocal(g), g.SizeBytes()*2, SourceOptions{
		Compact: true,
		Obs:     obs.NewRegistry(),
	})
	var entries int64
	for v := int64(0); v < int64(g.NumVertices()); v++ {
		adj, err := src.GetAdj(v)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Adj(v)
		if len(adj) != len(want) {
			t.Fatalf("adj(%d): %d entries, want %d", v, len(adj), len(want))
		}
		for j := range want {
			if adj[j] != want[j] {
				t.Fatalf("adj(%d) content mismatch", v)
			}
		}
		l, err := src.getList(v)
		if err != nil {
			t.Fatal(err)
		}
		if l.Len() != len(want) {
			t.Fatalf("list(%d).Len = %d, want %d", v, l.Len(), len(want))
		}
		entries += int64(len(want))
	}
	// The whole point of the compact plane: remote volume is well under
	// the 8 bytes/entry of the raw path.
	if src.RemoteBytes() >= entries*8 {
		t.Errorf("compact fetches moved %d bytes for %d entries; raw would be %d",
			src.RemoteBytes(), entries, entries*8)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Matches: 1, Codes: 2, DBQueries: 3, IntOps: 4, ResultSize: 5, TriHits: 6, TriMisses: 7}
	var sum Stats
	sum.Add(a)
	sum.Add(a)
	want := Stats{Matches: 2, Codes: 4, DBQueries: 6, IntOps: 8, ResultSize: 10, TriHits: 12, TriMisses: 14}
	if sum != want {
		t.Errorf("sum = %+v, want %+v", sum, want)
	}
}

func TestTriangleCacheAccessors(t *testing.T) {
	c := NewTriangleCache(0) // clamped to ≥ 1
	k := MakeTriKey([]int64{1, 2})
	c.Put(k, []int64{3})
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
	// Exceeding the bound clears wholesale.
	c.Put(MakeTriKey([]int64{4, 5}), []int64{6})
	if c.Len() != 1 {
		t.Errorf("len after clear+insert = %d", c.Len())
	}
	if _, ok := c.Get(k); ok {
		t.Error("cleared entry still present")
	}
}

// TestEnumerateOverVG exercises the executor's V(G) enumeration source
// with a hand-built plan (generated plans always filter V(G) into a
// concrete candidate set first, but the executor supports the raw form).
func TestEnumerateOverVG(t *testing.T) {
	g := gen.DemoDataGraph()
	p := gen.Path(3) // vertices 0-1-2
	// Order [0, 2, 1]: vertex 2 is not adjacent to 0, so its raw
	// candidate set is V(G) (with an injective filter in the generated
	// plan).
	pl, err := plan.Raw(p, []int{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(prog, GraphSource{G: g}, g.NumVertices(), identOrder(g.NumVertices()), Options{})
	var total int64
	for v := 0; v < g.NumVertices(); v++ {
		s, err := e.Run(Task{Start: int64(v)})
		if err != nil {
			t.Fatal(err)
		}
		total += s.Matches
	}
	// Cross-check with the reference.
	want := refCountWithIdentity(t, p, g)
	if total != want {
		t.Errorf("VG-order plan counted %d, want %d", total, want)
	}
}

func TestExecutorVGSourceDirect(t *testing.T) {
	// A deliberately minimal hand-built plan whose ENU iterates V(G)
	// directly: f1 := Init(start); f2 := Foreach(V(G)); report. The
	// executor must iterate all N vertices per task.
	p := gen.Path(3)
	pl := handBuiltVGPlan(t, p)
	prog, err := Compile(pl)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.DemoDataGraph()
	e := NewExecutor(prog, GraphSource{G: g}, g.NumVertices(), identOrder(g.NumVertices()), Options{})
	s, err := e.Run(Task{Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	// One report per (v2, v3) combination: N × N.
	n := int64(g.NumVertices())
	if s.Matches != n*n {
		t.Errorf("matches = %d, want %d", s.Matches, n*n)
	}
}
