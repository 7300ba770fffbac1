// Command benu-store manages the on-disk CSR store format of the kv
// disk backend (internal/csr): an immutable, checksummed, mmap-able
// image of one hash partition of the data graph.
//
// Usage:
//
//	benu-store build -graph edges.txt -out g.csr
//	benu-store build -preset lj -parts 4 -out lj.csr       # lj.csr.0 … lj.csr.3
//	benu-store info g.csr.0
//
// `build` converts an edge-list graph (or a synthetic preset) into one
// CSR file per hash partition, in the id space every binary shares: the
// graph relabelled by ≺ (cmd/internal/cli), flagged degree-ordered in the
// header. `info` validates a file and prints its header. The files plug
// into the enumerator through kv.OpenDisk — see docs/STORAGE.md for the
// deployment shapes.
package main

import (
	"flag"
	"fmt"
	"os"

	"benu/cmd/internal/cli"
	"benu/internal/csr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benu-store:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: benu-store build|info ... (run a subcommand with -h for flags)")
	}
	switch args[0] {
	case "build":
		return build(args[1:])
	case "info":
		return info(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want build or info)", args[0])
	}
}

// build converts a graph into per-partition CSR files.
func build(args []string) error {
	fs := flag.NewFlagSet("benu-store build", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "data graph edge-list file (overrides -preset)")
		preset    = fs.String("preset", "as", "synthetic dataset preset: as, lj, ok, uk, fs")
		out       = fs.String("out", "", "output path; with -parts > 1, files are <out>.<part>")
		parts     = fs.Int("parts", 1, "hash-partition count (one file per partition)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("build: -out is required")
	}
	if *parts < 1 {
		return fmt.Errorf("build: -parts %d < 1", *parts)
	}
	g, err := cli.LoadGraph(*graphPath, *preset)
	if err != nil {
		return err
	}
	fmt.Printf("data graph: N=%d M=%d maxdeg=%d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())
	for p := 0; p < *parts; p++ {
		path := *out
		if *parts > 1 {
			path = fmt.Sprintf("%s.%d", *out, p)
		}
		if err := csr.WriteGraphFile(path, g, *parts, p); err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s: partition %d/%d, %d vertices, %d bytes\n",
			path, p, *parts, csr.NumListed(g.NumVertices(), *parts, p), st.Size())
	}
	return nil
}

// info validates CSR files and prints their headers.
func info(args []string) error {
	fs := flag.NewFlagSet("benu-store info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("info: no files given")
	}
	for _, path := range fs.Args() {
		f, err := csr.Open(path)
		if err != nil {
			return err
		}
		part, parts := f.Partition()
		fmt.Printf("%s: valid, partition %d/%d, %d of %d vertices, %d bytes, degree-ordered=%v\n",
			path, part, parts, f.NumListed(), f.NumVertices(), f.SizeBytes(), f.DegreeOrdered())
		f.Close()
	}
	return nil
}
