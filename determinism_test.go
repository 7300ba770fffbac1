package benu

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"benu/internal/gen"
)

// enumerateSorted runs one enumeration through the public API and
// returns the complete result as one canonical string: every match
// serialized, sorted, newline-joined. Emission order is
// scheduler-dependent (matches arrive concurrently from worker
// threads), so sorting is the caller's side of the determinism
// contract; the set of matches must not be.
func enumerateSorted(t *testing.T, p *Pattern, g *Graph, opts *Options) string {
	t.Helper()
	var mu sync.Mutex
	var lines []string
	res, err := Enumerate(p, g, opts, func(match []int64) bool {
		line := fmt.Sprint(match)
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(lines)) != res.Matches {
		t.Fatalf("emitted %d matches but Result.Matches = %d", len(lines), res.Matches)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestEnumerateDeterministic checks the reproducibility contract end to
// end: the same pattern, the same generator seed, and the same
// configuration must yield byte-identical sorted output across runs —
// including under aggressive task splitting, where the work arrives at
// emit in a different interleaving every time.
func TestEnumerateDeterministic(t *testing.T) {
	spec := gen.RandomGraphSpec{MinN: 30, MaxN: 30, Models: []string{"powerlaw"}}

	configs := map[string]*Options{
		"defaults": nil,
		"split": {Cluster: &ClusterConfig{
			Workers:          3,
			ThreadsPerWorker: 2,
			Spec:             ClusterSpec{Tau: 2}, // split nearly every task
		}},
	}

	for _, pat := range []string{"triangle", "chordal-square"} {
		p, err := PatternByName(pat)
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range configs {
			t.Run(pat+"/"+name, func(t *testing.T) {
				// Regenerate the graph from the seed each time: the data
				// graph itself is part of the reproducibility surface.
				first := enumerateSorted(t, p, gen.RandomDataGraph(spec, 11), opts)
				for run := 1; run < 3; run++ {
					got := enumerateSorted(t, p, gen.RandomDataGraph(spec, 11), opts)
					if got != first {
						t.Fatalf("run %d produced different output (%d vs %d bytes)",
							run, len(got), len(first))
					}
				}
				if first == "" {
					t.Fatal("no matches at all; test graph too sparse to exercise determinism")
				}
			})
		}
	}

	// The two configurations enumerate the same graph, so they must also
	// agree with each other, not merely each with themselves.
	p, err := PatternByName("triangle")
	if err != nil {
		t.Fatal(err)
	}
	g := gen.RandomDataGraph(spec, 11)
	if a, b := enumerateSorted(t, p, g, configs["defaults"]), enumerateSorted(t, p, g, configs["split"]); a != b {
		t.Fatalf("default and split configurations disagree (%d vs %d bytes)", len(a), len(b))
	}
}

// TestEnumerateCodesDeterministic covers the compressed path: the
// VCBC code stream, once expanded and sorted, must be identical across
// repeated runs with task splitting.
func TestEnumerateCodesDeterministic(t *testing.T) {
	spec := gen.RandomGraphSpec{MinN: 24, MaxN: 24, Models: []string{"er-sparse"}}
	p, err := PatternByName("square")
	if err != nil {
		t.Fatal(err)
	}

	run := func() string {
		g := gen.RandomDataGraph(spec, 5)
		// EnumerateCodes regenerates this same plan internally (same
		// pattern, same stats, same options); computing it up front gives
		// the emit closure the constraints it needs for expansion.
		pl, err := PlanBest(p, g, DefaultPlanOptions())
		if err != nil {
			t.Fatal(err)
		}
		ord := NewOrder(g)
		opts := &Options{Cluster: &ClusterConfig{Workers: 2, ThreadsPerWorker: 2, Spec: ClusterSpec{Tau: 2}}}
		var mu sync.Mutex
		var lines []string
		_, _, err = EnumerateCodes(p, g, opts, func(c *Code) bool {
			mu.Lock()
			defer mu.Unlock()
			c.Expand(p.NumVertices(), pl.FreeOrderConstraints, ord, func(f []int64) bool {
				lines = append(lines, fmt.Sprint(f))
				return true
			})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}

	first := run()
	if first == "" {
		t.Fatal("no compressed matches; test graph too sparse")
	}
	if second := run(); second != first {
		t.Fatalf("compressed enumeration not reproducible (%d vs %d bytes)", len(second), len(first))
	}
}
