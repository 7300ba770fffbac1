package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"benu/cmd/internal/cli"
	"benu/internal/csr"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/vcbc"
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

// writeUnorderedGraph writes an edge-list file of a power-law graph
// whose low ids are its hubs, so that its ids are far from ≺, and
// returns the path and the graph as read back.
func writeUnorderedGraph(t *testing.T) (string, *graph.Graph) {
	t.Helper()
	g := gen.PowerLaw(gen.PowerLawConfig{N: 60, EdgesPer: 4, Triad: 0.5, Seed: 3})
	if g.DegreeOrdered() {
		t.Fatal("the graph's ids already follow ≺; the test exercises nothing")
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in, err := graph.ReadEdgeList(f)
	if err != nil {
		t.Fatal(err)
	}
	return path, in
}

// TestOutputKeepsInputIDs: benu runs on the graph relabelled by ≺, yet
// -output reports the edge-list file's ids. The text of an uncompressed
// run, and the VCBC stream of a compressed one expanded the way
// benu-decode does (under the loaded graph's InputOrder), are exactly
// graph.RefEnumerate's embeddings of the file's graph.
func TestOutputKeepsInputIDs(t *testing.T) {
	path, in := writeUnorderedGraph(t)
	p := gen.Q(4)
	var want []string
	graph.RefEnumerate(p, in, graph.NewTotalOrder(in), func(f []int64) bool {
		want = append(want, matchLine(f))
		return true
	})
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("q4 has no embeddings; the test exercises nothing")
	}
	for _, uncompressed := range []bool{true, false} {
		out := filepath.Join(t.TempDir(), "out")
		if err := run(runConfig{
			pattern: "q4", graphPath: path, workers: 2, threads: 2, cacheRel: 1, tau: 4,
			uncompressed: uncompressed, output: out,
		}); err != nil {
			t.Fatal(err)
		}
		var got []string
		if uncompressed {
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			got = strings.Split(strings.TrimSpace(string(data)), "\n")
		} else {
			got = expandStream(t, out, path)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("uncompressed=%v: %d output lines, %d reference embeddings; first %q vs %q",
				uncompressed, len(got), len(want), got[:min(3, len(got))], want[:3])
		}
	}
}

// expandStream expands every code of the VCBC stream at path as
// benu-decode -expand does: under the order of the graph at graphPath as
// loaded, whose ranks are the relabel map.
func expandStream(t *testing.T, path, graphPath string) []string {
	t.Helper()
	g, err := cli.LoadGraph(graphPath, "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := vcbc.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	ord := g.InputOrder()
	var lines []string
	for {
		c, err := r.Next()
		if err == io.EOF {
			return lines
		}
		if err != nil {
			t.Fatal(err)
		}
		c.Expand(len(r.Cover())+len(r.Free()), r.Constraints(), ord, func(m []int64) bool {
			lines = append(lines, matchLine(m))
			return true
		})
	}
}

func matchLine(f []int64) string {
	s := make([]string, len(f))
	for i, v := range f {
		s[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(s, " ")
}

// TestCSRRefusesUnorderedFile: a CSR file whose ids do not follow ≺ —
// what benu-store wrote before it relabelled — is refused by name,
// while the file of the relabelled graph serves.
func TestCSRRefusesUnorderedFile(t *testing.T) {
	path, in := writeUnorderedGraph(t)
	stale := filepath.Join(t.TempDir(), "old.csr")
	if err := csr.WriteGraphFile(stale, in, 1, 0); err != nil {
		t.Fatal(err)
	}
	rc := runConfig{pattern: "triangle", graphPath: path, workers: 1, threads: 1, cacheRel: 1, csr: stale}
	if err := run(rc); !errors.Is(err, csr.ErrNotDegreeOrdered) {
		t.Fatalf("run on an unordered CSR file: %v, want csr.ErrNotDegreeOrdered", err)
	}
	rc.csr = filepath.Join(t.TempDir(), "new.csr")
	if err := csr.WriteGraphFile(rc.csr, graph.Relabel(in), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(rc); err != nil {
		t.Fatalf("run on the relabelled graph's CSR file: %v", err)
	}
}
