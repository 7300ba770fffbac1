package check

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"benu/internal/cluster"
	"benu/internal/cluster/sched"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
	"benu/internal/plan"
	"benu/internal/resilience"
)

// Chaos differential tests: the fault-tolerant backends run over a
// transiently faulty store and must still agree with the fault-free
// reference on counts AND canonical embedding sets. Identical results
// under injected faults are the differential proof that the recovery
// layers (kv.Resilient retries, cluster task re-execution) are
// exactly-once — no lost matches, no double-counted ones.

// transientWrap injects a transient failure on every n-th store query:
// the query errors, but the same vertex is guaranteed to succeed when
// asked again (the failure model retries are proven against).
func transientWrap(n int64) StoreWrap {
	return func(s kv.Store) kv.Store {
		f := kv.NewFaulty(s)
		f.Transient = true
		f.FailEveryN = n
		return f
	}
}

// TestChaosDifferentialTransientFaults sweeps the resilient backends over
// transiently faulty stores: zero mismatches required.
func TestChaosDifferentialTransientFaults(t *testing.T) {
	patterns := []*graph.Pattern{gen.Triangle(), gen.Q(1)}
	if !testing.Short() {
		patterns = append(patterns, gen.Q(4))
	}
	cfg := BatchConfig{
		Seed:     4040,
		Graphs:   2,
		Spec:     sparseSpec,
		Patterns: patterns,
		Variants: ShortVariants(),
		Backends: ResilientBackends(transientWrap(23)),
	}
	for _, m := range RunBatch(cfg) {
		t.Error(m.String())
	}
}

// TestChaosHighFaultRate pushes the transient rate much higher (every
// 7th query fails) on a smaller sweep — the recovery layers must still
// converge to exact results.
func TestChaosHighFaultRate(t *testing.T) {
	cfg := BatchConfig{
		Seed:     5050,
		Graphs:   1,
		Spec:     sparseSpec,
		Patterns: []*graph.Pattern{gen.Triangle()},
		Variants: ShortVariants(),
		Backends: ResilientBackends(transientWrap(7)),
	}
	for _, m := range RunBatch(cfg) {
		t.Error(m.String())
	}
}

// TestChaosPermanentFaultsSurface is the counterweight: when faults are
// permanent (every query fails, retries cannot help), the resilient
// backends must fail loudly — an error, never a silently wrong count.
func TestChaosPermanentFaultsSurface(t *testing.T) {
	g := gen.RandomDataGraph(sparseSpec, 31)
	wrap := func(s kv.Store) kv.Store {
		f := kv.NewFaulty(s)
		f.FailEveryN = 1
		return f
	}
	v := Variants()[1] // opt
	for _, b := range ResilientBackends(wrap) {
		m := Validate(gen.Triangle(), g, v, b)
		if m == nil {
			t.Errorf("%s: permanent faults healed?", b.Name)
			continue
		}
		if m.Err == nil {
			t.Errorf("%s: permanent faults produced a count (%d vs %d) instead of an error",
				b.Name, m.GotCount, m.WantCount)
		}
	}
}

// TestResilientBackendsTransparentWhenHealthy runs the resilient columns
// with no fault injection: the recovery layers must be invisible on a
// healthy store (this is why they can ride in the default matrix).
func TestResilientBackendsTransparentWhenHealthy(t *testing.T) {
	cfg := BatchConfig{
		Seed:     6060,
		Graphs:   1,
		Spec:     sparseSpec,
		Patterns: []*graph.Pattern{gen.Triangle(), gen.Q(1)},
		Variants: ShortVariants(),
		Backends: ResilientBackends(nil),
	}
	for _, m := range RunBatch(cfg) {
		t.Error(m.String())
	}
}

// replicaChaosBackend builds the cluster backend over a 2×2 replica
// deployment where deadReplica (or every replica, when deadReplica < 0)
// of each partition fails permanently. No kv.Resilient rides on top —
// replica failover must carry the recovery alone.
func replicaChaosBackend(t *testing.T, deadReplica int) Backend {
	t.Helper()
	return Backend{
		Name: "replica-chaos",
		Run: func(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder) (*Outcome, error) {
			const parts, reps = 2, 2
			replicas := make([][]kv.Store, parts)
			for p := range replicas {
				shard := kv.Shard(g, p, parts)
				for r := 0; r < reps; r++ {
					var s kv.Store = kv.NewMapStore(shard, g.NumVertices())
					if r == deadReplica || deadReplica < 0 {
						f := kv.NewFaulty(s)
						f.FailEveryN = 1 // dead for good: every call errors
						s = f
					}
					replicas[p] = append(replicas[p], s)
				}
			}
			store, err := kv.NewReplicated(replicas, g.NumVertices(), kv.ReplicatedOptions{
				Obs: obs.NewRegistry(),
			})
			if err != nil {
				return nil, err
			}
			cfg := cluster.Config{
				Workers:          2,
				ThreadsPerWorker: 2,
				CacheBytes:       g.SizeBytes()/2 + 1, // small: evictions force re-reads
				Spec:             cluster.Spec{Tau: 4},
				Obs:              obs.NewRegistry(),
			}
			return runCluster(pl, g, ord, store, cfg)
		},
	}
}

// TestChaosReplicaFailoverExactWithOneReplicaDown kills one replica of
// every partition permanently and runs the full cluster over what
// remains: counts and canonical embedding sets must be exact — replica
// failover is a correctness mechanism, not best-effort.
func TestChaosReplicaFailoverExactWithOneReplicaDown(t *testing.T) {
	b := replicaChaosBackend(t, 0)
	for _, p := range []*graph.Pattern{gen.Triangle(), gen.Q(1)} {
		for _, seed := range []int64{71, 72} {
			g := gen.RandomDataGraph(sparseSpec, seed)
			for _, v := range ShortVariants() {
				if m := Validate(p, g, v, b); m != nil {
					t.Errorf("%s/%s seed %d: %s", p.Name(), v.Name, seed, m.String())
				}
			}
		}
	}
}

// laggedStore stretches every adjacency read so a run lasts long enough
// to be crashed mid-flight deterministically.
type laggedStore struct {
	kv.Store
	delay time.Duration
}

func (s laggedStore) GetAdjBatch(vs []int64) ([]graph.AdjList, error) {
	time.Sleep(s.delay)
	return s.Store.GetAdjBatch(vs)
}

// TestChaosNetMasterRestart is the kill-master differential: a journaled
// networked run is crashed mid-flight, the master restarts on the same
// address and journal, the surviving worker rejoins — and the resumed
// run's Outcome (count AND canonical embedding multiset) must be
// bit-identical to the brute-force reference. Run for both an
// uncompressed and a VCBC-compressed plan, since journal replay must
// re-emit plain matches and compressed codes alike.
func TestChaosNetMasterRestart(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{N: 120, EdgesPer: 4, Triad: 0.4, Seed: 81})
	ord := graph.NewTotalOrder(g)
	p := gen.Triangle()
	want := Reference(p, g, ord)

	for _, v := range []Variant{Variants()[1], Variants()[3]} { // opt, vcbc
		t.Run(v.Name, func(t *testing.T) {
			pl, err := BuildPlan(p, g, v.Opts)
			if err != nil {
				t.Fatal(err)
			}
			jpath := filepath.Join(t.TempDir(), "job.journal")

			// Incarnation 1: journaled master, one slow worker, killed
			// after at least two commits are on disk.
			reg1 := obs.NewRegistry()
			cfg1 := netJournalConfig(pl, g, ord, jpath, reg1)
			col1 := newCollector(pl, g, ord)
			col1.hook(&cfg1.Emit, &cfg1.EmitCode)
			m1, err := sched.StartMaster("127.0.0.1:0", cfg1)
			if err != nil {
				t.Fatal(err)
			}
			addr := m1.Addr()
			w, err := sched.StartWorker(addr, sched.WorkerConfig{
				Threads: 2,
				Store:   laggedStore{kv.NewLocal(g), 300 * time.Microsecond},
				Obs:     obs.NewRegistry(),
				Retry: &resilience.Policy{
					MaxAttempts: 200,
					BaseBackoff: 2 * time.Millisecond,
					MaxBackoff:  25 * time.Millisecond,
					Multiplier:  2,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			committed := reg1.Counter("sched.tasks.completed")
			for committed.Value() < 2 {
				time.Sleep(time.Millisecond)
			}
			m1.Close() // kill: journal already holds every committed task

			// Incarnation 2: same address and journal, fresh collector —
			// replayed commits are re-emitted, so it sees the full run.
			cfg2 := netJournalConfig(pl, g, ord, jpath, obs.NewRegistry())
			col2 := newCollector(pl, g, ord)
			col2.hook(&cfg2.Emit, &cfg2.EmitCode)
			m2, err := sched.StartMaster(addr, cfg2)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			res, err := m2.Wait(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Wait(); err != nil {
				t.Errorf("worker exit after master restart: %v", err)
			}
			if res.Epoch != 2 || res.Replayed == 0 {
				t.Errorf("resumed run: epoch=%d replayed=%d, want epoch 2 and replayed > 0",
					res.Epoch, res.Replayed)
			}
			got, err := col2.outcome(res.Matches)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count != want.Count {
				t.Errorf("count = %d, want %d", got.Count, want.Count)
			}
			if !reflect.DeepEqual(got.Embeddings, want.Embeddings) {
				t.Errorf("resumed run's embedding set differs from the reference (%d vs %d embeddings)",
					len(got.Embeddings), len(want.Embeddings))
			}
		})
	}
}

// netJournalConfig is the master config the restart chaos test uses for
// both incarnations — identical job, fresh observables per incarnation.
func netJournalConfig(pl *plan.Plan, g *graph.Graph, ord *graph.TotalOrder, jpath string, reg *obs.Registry) sched.MasterConfig {
	return sched.MasterConfig{
		Plan:        pl,
		NumVertices: g.NumVertices(),
		Ord:         ord,
		Degree:      g.Degree,
		Tau:         4,
		TaskRetries: 8,
		JournalPath: jpath,
		Obs:         reg,
	}
}

// TestChaosReplicaAllReplicasDown is the loud-failure counterweight:
// with every replica of every partition dead, the run must surface an
// error — never a silently wrong count.
func TestChaosReplicaAllReplicasDown(t *testing.T) {
	b := replicaChaosBackend(t, -1)
	g := gen.RandomDataGraph(sparseSpec, 73)
	m := Validate(gen.Triangle(), g, Variants()[1], b)
	if m == nil {
		t.Fatal("all replicas dead but the run matched the reference")
	}
	if m.Err == nil {
		t.Fatalf("all replicas dead produced a count (%d vs %d) instead of an error",
			m.GotCount, m.WantCount)
	}
}
