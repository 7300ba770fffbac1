package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"benu/internal/csr"
	"benu/internal/gen"
	"benu/internal/graph"
)

// TestBuildThenInfo builds CSR files through the shared graph loader —
// from an edge-list file into one file, and from a preset into two
// partitions — and validates each with info. Every file must hold the
// loaded graph's vertex count and its own partition.
func TestBuildThenInfo(t *testing.T) {
	dir := t.TempDir()
	edges := filepath.Join(dir, "edges.txt")
	f, err := os.Create(edges)
	if err != nil {
		t.Fatal(err)
	}
	demo := gen.DemoDataGraph()
	if err := graph.WriteEdgeList(f, demo); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		source   []string
		parts    int
		vertices int
	}{
		{[]string{"-graph", edges}, 1, demo.NumVertices()},
		{[]string{"-preset", "as"}, 2, gen.PresetByNameMust("as").Cached().NumVertices()},
	} {
		out := filepath.Join(dir, fmt.Sprintf("g%d.csr", tc.parts))
		args := append([]string{"build", "-out", out, "-parts", fmt.Sprint(tc.parts)}, tc.source...)
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		files := []string{out}
		if tc.parts > 1 {
			files = []string{out + ".0", out + ".1"}
		}
		if err := run(append([]string{"info"}, files...)); err != nil {
			t.Fatalf("info %v: %v", files, err)
		}
		for i, path := range files {
			c, err := csr.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if part, parts := c.Partition(); part != i || parts != tc.parts || c.NumVertices() != tc.vertices {
				t.Errorf("%s: partition %d/%d of %d vertices, want %d/%d of %d",
					path, part, parts, c.NumVertices(), i, tc.parts, tc.vertices)
			}
			if !c.DegreeOrdered() {
				t.Errorf("%s: not flagged degree-ordered; build relabels every graph by ≺", path)
			}
			c.Close()
		}
	}
}

// TestRunErrors: a missing subcommand, -out or graph source, and an
// unknown preset are refused.
func TestRunErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.csr")
	for _, args := range [][]string{
		nil,
		{"nope"},
		{"build", "-preset", "as"},
		{"build", "-out", out, "-preset", "nope"},
		{"build", "-out", out, "-graph", "/does/not/exist"},
		{"info"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
