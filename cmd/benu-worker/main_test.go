package main

import (
	"context"
	"testing"
	"time"

	"benu/internal/cluster/sched"
	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
)

// TestRunReturnsWithTheMaster runs the binary's own run() — two workers
// with the default 30 s rejoin window — against a master that finishes a
// small job and then does what benu-master does: Drain, Close. Both
// workers must return nil within a second of the run finishing, every
// time: one that is parked in its lease back-off when the master exits
// must not mistake that for a restart and retry it.
func TestRunReturnsWithTheMaster(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 400, EdgesPer: 3, Triad: 0.4, Seed: 11})
	p := gen.Triangle()
	best, err := plan.GenerateBestPlan(p, estimate.NewStats(g, estimate.MaxMomentDefault), plan.AllOptions)
	if err != nil {
		t.Fatal(err)
	}
	ord := graph.NewTotalOrder(g)
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

	for i := 0; i < 20; i++ {
		m, err := sched.StartMaster("127.0.0.1:0", sched.MasterConfig{
			Plan: best.Plan, NumVertices: g.NumVertices(), Ord: ord, Degree: g.Degree,
			TaskRetries: 2, LeaseDuration: 400 * time.Millisecond, StoreAddrs: addrs, Obs: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		exits := make(chan error, 2)
		for j := 0; j < 2; j++ {
			go func() {
				exits <- run(runConfig{master: m.Addr(), threads: 1, cacheMB: 1, rejoinFor: 30 * time.Second})
			}()
		}
		res, err := m.Wait(context.Background())
		finished := time.Now()
		if err != nil || res.Matches != want {
			t.Fatalf("iteration %d: matches=%v err=%v, want %d", i, res, err, want)
		}
		m.Drain(2 * time.Second)
		m.Close()
		for j := 0; j < 2; j++ {
			select {
			case err := <-exits:
				if err != nil {
					t.Errorf("iteration %d: run() = %v, want nil", i, err)
				}
			case <-time.After(time.Until(finished.Add(time.Second))):
				t.Fatalf("iteration %d: a worker is still running 1s after the master finished", i)
			}
		}
	}
}
