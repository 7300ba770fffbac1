package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
)

// TestFlagSet pins benu's flags, names and defaults, to the set the
// binary had before its shared flags moved to package cli: a flag that
// appears or vanishes, or a default that drifts (-preset is ok here and
// as in benu-master, -prefetch off here and on there), fails.
func TestFlagSet(t *testing.T) {
	want := map[string]string{
		"pattern": "triangle", "graph": "", "preset": "ok", "tau": "500",
		"uncompressed": "false", "degree-filter": "false", "retry": "2",
		"prefetch": "false", "metrics": "false", "v": "false",
		"workers": "4", "threads": "4", "cache": "1", "clique-cache": "false",
		"compact": "false", "csr": "", "output": "", "metrics-json": "",
		"deadline": "0s",
	}
	got := map[string]string{}
	newFlagSet(new(runConfig)).VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags and defaults:\n got %v\nwant %v", got, want)
	}
	if rc := parseFlags(nil); rc.preset != "ok" || rc.prefetch || rc.retry != 2 || rc.tau != 500 {
		t.Errorf("parsed defaults: preset=%q prefetch=%v retry=%d tau=%d", rc.preset, rc.prefetch, rc.retry, rc.tau)
	}
}

// TestRetryAttempts drives the store wrapping of -retry and -deadline over
// a store whose every call fails: -retry N makes N+1 attempts per read,
// and -retry 0 makes one, -deadline or not.
func TestRetryAttempts(t *testing.T) {
	for _, tc := range []struct {
		retry    int
		deadline time.Duration
		calls    int64
	}{
		{0, 0, 1},
		{0, time.Second, 1},
		{2, 0, 3},
		{2, time.Second, 3},
	} {
		faulty := kv.NewFaulty(kv.NewLocal(gen.DemoDataGraph()))
		faulty.FailEveryN = 1
		store := resilient(faulty, tc.retry, tc.deadline, nil)
		if _, err := kv.GetAdj(store, 0); err == nil {
			t.Fatalf("-retry %d -deadline %v: a read of an always-failing store succeeded", tc.retry, tc.deadline)
		}
		if got := faulty.Calls(); got != tc.calls {
			t.Errorf("-retry %d -deadline %v: %d store calls for one failed read, want %d", tc.retry, tc.deadline, got, tc.calls)
		}
	}
}

func TestRunOnPreset(t *testing.T) {
	err := run(runConfig{
		pattern: "triangle", preset: "as",
		workers: 2, threads: 2, cacheRel: 1, tau: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithExtensions(t *testing.T) {
	err := run(runConfig{
		pattern: "q4", preset: "as",
		workers: 2, threads: 2, cacheRel: 0.5, tau: 100,
		degreeFilter: true, cliqueCache: true, verbose: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFromEdgeListFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, gen.DemoDataGraph()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	err = run(runConfig{
		pattern: "demo", graphPath: path,
		workers: 1, threads: 1, cacheRel: 1, tau: 0, uncompressed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(runConfig{pattern: "nope", preset: "as", workers: 1, threads: 1}); err == nil {
		t.Error("unknown pattern accepted")
	}
	if err := run(runConfig{pattern: "triangle", preset: "nope", workers: 1, threads: 1}); err == nil {
		t.Error("unknown preset accepted")
	}
	if err := run(runConfig{pattern: "triangle", graphPath: "/does/not/exist", workers: 1, threads: 1}); err == nil {
		t.Error("missing file accepted")
	}
}
