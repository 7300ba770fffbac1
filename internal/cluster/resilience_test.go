package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/resilience"
	"benu/internal/vcbc"
)

// Fault-tolerant execution tests: task re-execution with exactly-once
// accounting, failing on the first fault without a budget, cancellation
// end-to-end, and
// the full resilient stack over a faulty TCP storage tier.

func TestRunContextPreCancelled(t *testing.T) {
	g := testGraph()
	ord := graph.NewTotalOrder(g)
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := RunContext(ctx, pl, kv.NewLocal(g), ord, g.Degree, Defaults(g))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("pre-cancelled run took %v — not prompt", d)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 400, EdgesPer: 4, Triad: 0.5, Seed: 61})
	ord := graph.NewTotalOrder(g)
	pl := bestPlan(t, gen.Q(4), g, plan.OptimizedUncompressed)
	for _, tc := range []struct {
		name  string
		store func() kv.Store
	}{
		// Slow the store down so the run is long enough to catch
		// mid-flight.
		{"slow", func() kv.Store {
			store := kv.NewFaulty(kv.NewLocal(g))
			store.Latency = 200 * time.Microsecond
			return store
		}},
		// Every read fails with a retryable error, and the retry budget
		// outlasts the bound below many times over: only the run's
		// context, bound into the store by NewMachine, can end the
		// retries.
		{"retrying", func() kv.Store {
			faulty := kv.NewFaulty(kv.NewLocal(g))
			faulty.FailEveryN = 1
			return kv.NewResilient(faulty, kv.ResilientOptions{
				Policy:         resilience.Policy{MaxAttempts: 1 << 20, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second},
				DisableBreaker: true,
				Obs:            obs.NewRegistry(),
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := tc.store()
			cfg := Defaults(g)
			cfg.CacheBytes = 0 // every read goes to the store

			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := RunContext(ctx, pl, store, ord, g.Degree, cfg)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if err == nil {
					t.Skip("run finished before the cancel landed — graph too small for this machine")
				}
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled run never returned: dispatch not stopped")
			}
			// All worker goroutines must drain; poll briefly for the runtime to
			// settle before comparing.
			for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before+2 {
				t.Errorf("goroutines leaked: %d before, %d after cancel", before, after)
			}
		})
	}
}

func TestTaskRetryRecoversTransientFaults(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 150, EdgesPer: 3, Triad: 0.4, Seed: 63})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, ord)

	store := kv.NewFaulty(kv.NewLocal(g))
	store.Transient = true
	store.FailEveryN = 50
	cfg := Defaults(g)
	cfg.TaskRetries = 10
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatalf("retries did not heal transient faults: %v", err)
	}
	if store.Injected() == 0 {
		t.Fatal("no faults injected — test proves nothing")
	}
	if res.TasksRetried == 0 {
		t.Error("faults were injected but no task was retried")
	}
	if res.TasksFailed != 0 {
		t.Errorf("TasksFailed = %d on a successful run", res.TasksFailed)
	}
	if res.Matches != want {
		t.Errorf("exactly-once violated: got %d matches, want %d", res.Matches, want)
	}
}

func TestTaskRetryEmitsExactlyOnce(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 120, EdgesPer: 3, Triad: 0.5, Seed: 65})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, ord)

	store := kv.NewFaulty(kv.NewLocal(g))
	store.Transient = true
	store.FailEveryN = 40
	var mu sync.Mutex
	seen := make(map[string]int)
	cfg := Defaults(g)
	cfg.TaskRetries = 10
	cfg.Emit = func(f []int64) bool {
		var sb strings.Builder
		for _, v := range f {
			fmt.Fprintf(&sb, "%d,", v)
		}
		mu.Lock()
		seen[sb.String()]++
		mu.Unlock()
		return true
	}
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if store.Injected() == 0 {
		t.Fatal("no faults injected")
	}
	var total int64
	for m, n := range seen {
		if n != 1 {
			t.Errorf("match %s delivered %d times", m, n)
		}
		total += int64(n)
	}
	if total != want || res.Matches != want {
		t.Errorf("delivered %d matches (counted %d), want %d", total, res.Matches, want)
	}
}

func TestTaskRetryDeliversCodesExactlyOnce(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 120, EdgesPer: 3, Triad: 0.5, Seed: 67})
	ord := graph.NewTotalOrder(g)
	p := gen.Q(1)
	pl := bestPlan(t, p, g, plan.AllOptions)
	if !pl.Compressed {
		t.Skip("best plan not compressed; nothing to test")
	}
	want := graph.RefCount(p, g, ord)

	store := kv.NewFaulty(kv.NewLocal(g))
	store.Transient = true
	store.FailEveryN = 40
	var delivered int64
	var mu sync.Mutex
	cfg := Defaults(g)
	cfg.TaskRetries = 10
	cfg.EmitCode = func(c *vcbc.Code) bool {
		mu.Lock()
		delivered++
		mu.Unlock()
		return true
	}
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != want {
		t.Errorf("got %d matches, want %d", res.Matches, want)
	}
	if delivered != res.Codes {
		t.Errorf("delivered %d codes, run counted %d", delivered, res.Codes)
	}
}

// TestTaskRetryZeroSurfacesFirstFault: without a retry budget the first
// task failure fails the run, its cause intact, and nothing is retried.
func TestTaskRetryZeroSurfacesFirstFault(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 150, EdgesPer: 3, Triad: 0.4, Seed: 63})
	ord := graph.NewTotalOrder(g)
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)

	store := kv.NewFaulty(kv.NewLocal(g))
	store.Transient = true
	store.FailEveryN = 50
	cfg := Defaults(g)
	cfg.TaskRetries = 0
	cfg.Obs = obs.NewRegistry()
	res, err := Run(pl, store, ord, g.Degree, cfg)
	if err == nil {
		t.Fatalf("TaskRetries = 0 healed a fault (retried %d)", res.TasksRetried)
	}
	if !errors.Is(err, kv.ErrInjected) {
		t.Errorf("error chain lost the cause: %v", err)
	}
	if n := cfg.Obs.Counter("cluster.tasks.retried").Value(); n != 0 {
		t.Errorf("cluster.tasks.retried = %d with TaskRetries = 0, want 0", n)
	}
}

func TestTaskRetryExhaustionFailsRun(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 100, EdgesPer: 3, Seed: 69})
	ord := graph.NewTotalOrder(g)
	pl := bestPlan(t, gen.Triangle(), g, plan.OptimizedUncompressed)

	store := kv.NewFaulty(kv.NewLocal(g))
	store.FailEveryN = 1 // every query fails, permanently
	cfg := Defaults(g)
	cfg.CacheBytes = 0
	cfg.TaskRetries = 2
	_, err := Run(pl, store, ord, g.Degree, cfg)
	if err == nil {
		t.Fatal("permanently failing store healed by retries?")
	}
	if !errors.Is(err, kv.ErrInjected) {
		t.Errorf("error chain lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Errorf("exhaustion error does not report the attempt count: %v", err)
	}
}

// TestResilientTCPClusterAcceptance is the issue's acceptance scenario:
// a cluster run over a kv.Faulty-wrapped TCP store with a ~1% transient
// fault rate, healed by the resilient store decorator plus task
// re-execution, must produce exactly the reference match count.
func TestResilientTCPClusterAcceptance(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 200, EdgesPer: 4, Triad: 0.5, Seed: 71})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	pl := bestPlan(t, p, g, plan.OptimizedUncompressed)
	want := graph.RefCount(p, g, ord)

	servers, addrs, err := kv.ServeGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	client, err := kv.Dial(addrs, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	faulty := kv.NewFaulty(client)
	faulty.Transient = true
	faulty.FailRate = 0.01
	faulty.Seed = 7

	reg := obs.NewRegistry()
	store := kv.NewResilient(faulty, kv.ResilientOptions{
		Policy: resilience.Policy{
			MaxAttempts: 6,
			BaseBackoff: 50 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			Multiplier:  2,
			Seed:        1,
		},
		Obs: reg,
	})
	cfg := Defaults(g)
	cfg.TaskRetries = 4
	cfg.Obs = reg
	res, err := RunContext(context.Background(), pl, store, ord, g.Degree, cfg)
	if err != nil {
		t.Fatalf("resilient stack did not heal ~1%% transient faults: %v", err)
	}
	if faulty.Injected() == 0 {
		t.Fatal("no faults injected — raise the rate or the load")
	}
	if res.Matches != want {
		t.Errorf("got %d matches, want %d (exactly-once violated)", res.Matches, want)
	}
	if reg.Counter("resilience.retries").Value() == 0 {
		t.Error("resilience.retries stayed 0 despite injected faults")
	}
}
