package kv

import (
	"sync"
	"testing"
)

// TestRouteBatchAllocs pins the allocation behavior of batch routing:
// routeBatch runs on every executor thread's prefetch path, and before
// the pooled scratch it rebuilt a map[int][]int plus one keys slice per
// partition on every call. Steady state must not allocate per call.
func TestRouteBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun counts are not meaningful")
	}
	const np, n = 4, 1 << 20
	var scratch sync.Pool
	vs := make([]int64, 64)
	for i := range vs {
		vs[i] = int64(i * 37 % n)
	}
	serve := func(p int, keys []int64, idxs []int) error { return nil }
	run := func() {
		if err := routeBatch(&scratch, np, n, vs, serve); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: size the pooled buckets
	allocs := testing.AllocsPerRun(100, run)
	// Budget one stray allocation for sync.Pool refills after a GC;
	// the pre-pool cost was ~1+partitions allocations per call.
	if allocs > 1 {
		t.Errorf("routeBatch allocates %.1f times per call (budget 1): "+
			"per-call routing scratch crept back", allocs)
	}
}

// TestRouteBatchSingleKeyAllocs pins the demand-miss fast path: a
// single-key batch — what every TCP cache miss becomes — must route with
// zero allocations, not just the ≤1 amortized budget of the pooled
// multi-key path. The caller's slice is the key group and the shared
// oneIdx slice is the position group, so nothing is built per call.
func TestRouteBatchSingleKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun counts are not meaningful")
	}
	var scratch sync.Pool
	vs := []int64{12345}
	serve := func(p int, keys []int64, idxs []int) error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		if err := routeBatch(&scratch, 4, 1<<20, vs, serve); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("single-key routeBatch allocates %.1f times per call, want 0", allocs)
	}
}

// TestRouteBatchGrouping locks the routing contract the pooled scratch
// must preserve: partitions served ascending, positions in input order,
// keys aligned with positions, out-of-range vertices rejected.
func TestRouteBatchGrouping(t *testing.T) {
	var scratch sync.Pool
	route := func(vs []int64, serve func(p int, keys []int64, idxs []int) error) error {
		return routeBatch(&scratch, 3, 100, vs, serve)
	}
	vs := []int64{5, 3, 7, 0, 9, 4, 6}
	var gotParts []int
	var gotKeys [][]int64
	var gotIdxs [][]int
	err := route(vs, func(p int, keys []int64, idxs []int) error {
		gotParts = append(gotParts, p)
		gotKeys = append(gotKeys, append([]int64(nil), keys...))
		gotIdxs = append(gotIdxs, append([]int(nil), idxs...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantParts := []int{0, 1, 2}
	wantKeys := [][]int64{{3, 0, 9, 6}, {7, 4}, {5}}
	wantIdxs := [][]int{{1, 3, 4, 6}, {2, 5}, {0}}
	for i := range wantParts {
		if gotParts[i] != wantParts[i] {
			t.Fatalf("partition order %v, want %v", gotParts, wantParts)
		}
		for j := range wantKeys[i] {
			if gotKeys[i][j] != wantKeys[i][j] || gotIdxs[i][j] != wantIdxs[i][j] {
				t.Fatalf("partition %d: keys %v idxs %v, want %v / %v",
					wantParts[i], gotKeys[i], gotIdxs[i], wantKeys[i], wantIdxs[i])
			}
		}
	}
	if err := route([]int64{100}, func(int, []int64, []int) error { return nil }); err == nil {
		t.Error("out-of-range vertex not rejected")
	}
	if err := route([]int64{-1}, func(int, []int64, []int) error { return nil }); err == nil {
		t.Error("negative vertex not rejected")
	}
}
