package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"benu/internal/cluster"
	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/plan"
	"benu/internal/vcbc"
)

// writeStream enumerates q4 on the as preset into a VCBC stream file and
// returns the path plus the true match count.
func writeStream(t *testing.T) (string, int64) {
	t.Helper()
	g := gen.PresetByNameMust("as").Cached()
	ord := graph.NewTotalOrder(g)
	st := estimate.NewStats(g, estimate.MaxMomentDefault)
	best, err := plan.GenerateBestPlan(gen.Q(4), st, plan.AllOptions)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "q4.vcbc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cover := make([]int, 0, best.Plan.CoverSize)
	inFree := map[int]bool{}
	for _, v := range best.Plan.Free {
		inFree[v] = true
	}
	for v := 0; v < best.Plan.Pattern.NumVertices(); v++ {
		if !inFree[v] {
			cover = append(cover, v)
		}
	}
	sw, err := vcbc.NewWriter(f, cover, best.Plan.Free, best.Plan.FreeOrderConstraints)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Defaults(g)
	cfg.Workers, cfg.ThreadsPerWorker = 1, 1 // serialize writes
	cfg.EmitCode = func(c *vcbc.Code) bool { return sw.Write(c) == nil }
	res, err := cluster.Run(best.Plan, kv.NewLocal(g), ord, g.Degree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path, res.Matches
}

func TestDecodeCount(t *testing.T) {
	path, want := writeStream(t)
	var out bytes.Buffer
	if err := run(path, "as", "", false, 0, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "matches") {
		t.Fatalf("output: %q", out.String())
	}
	// The footer carries the counted total.
	var codes, matches int64
	if _, err := fmtSscan(out.String(), &codes, &matches); err != nil {
		t.Fatal(err)
	}
	if matches != want {
		t.Errorf("decoded count %d, want %d", matches, want)
	}
}

// TestDecodeExpand: a stream in the input graph's ids, as benu wrote it
// before graphs were relabelled on load, expands to exactly
// graph.RefEnumerate's embeddings: the loader relabels, and decoding
// runs under the input graph's order (Graph.InputOrder).
func TestDecodeExpand(t *testing.T) {
	path, want := writeStream(t)
	var out bytes.Buffer
	if err := run(path, "as", "", true, 0, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Last line is the footer; the rest are matches.
	if int64(len(lines)-1) != want {
		t.Errorf("expanded %d matches, want %d", len(lines)-1, want)
	}
	g := gen.PresetByNameMust("as").Cached()
	var ref []string
	graph.RefEnumerate(gen.Q(4), g, graph.NewTotalOrder(g), func(f []int64) bool {
		ref = append(ref, strings.Trim(fmt.Sprint(f), "[]"))
		return true
	})
	got := lines[:len(lines)-1]
	sort.Strings(got)
	sort.Strings(ref)
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("expanded matches differ from graph.RefEnumerate's (%d vs %d lines)", len(got), len(ref))
	}
}

func TestDecodeErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run("", "as", "", false, 0, &out); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run("/no/such/file", "as", "", false, 0, &out); err == nil {
		t.Error("missing file accepted")
	}
	path, _ := writeStream(t)
	if err := run(path, "", "", false, 0, &out); err == nil {
		t.Error("missing graph source accepted")
	}
}

// fmtSscan parses the "# N codes, M matches" footer.
func fmtSscan(s string, codes, matches *int64) (int, error) {
	i := strings.LastIndex(s, "#")
	var c, m int64
	n, err := sscanFooter(s[i:], &c, &m)
	*codes, *matches = c, m
	return n, err
}

func sscanFooter(s string, c, m *int64) (int, error) {
	var n int
	var err error
	n, err = fmt.Sscanf(s, "# %d codes, %d matches", c, m)
	return n, err
}
