// Command benu-decode reads a VCBC result stream written by
// `benu -output` and counts or expands the compressed matches.
//
// Counting and expansion need the total order ≺ on the data graph (the
// free-vertex constraints compare under it), so the same graph must be
// supplied: either the preset name or the edge-list file used for the
// enumeration. The stream holds the input graph's ids, so it is decoded
// under that graph's order, whose ranks are the relabel map the loader
// computes.
//
// Usage:
//
//	benu -pattern q4 -preset ok -output q4.vcbc
//	benu-decode -in q4.vcbc -preset ok            # count expansions
//	benu-decode -in q4.vcbc -preset ok -expand    # print full matches
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"benu/cmd/internal/cli"
	"benu/internal/vcbc"
)

func main() {
	var (
		inPath     = flag.String("in", "", "VCBC stream file (required)")
		presetName = flag.String("preset", "", "dataset preset the stream was produced against")
		graphPath  = flag.String("graph", "", "edge-list file the stream was produced against (overrides -preset)")
		expand     = flag.Bool("expand", false, "print every expanded match instead of counting")
		limit      = flag.Int64("limit", 0, "stop after this many expanded matches (0 = all)")
	)
	flag.Parse()
	if err := run(*inPath, *presetName, *graphPath, *expand, *limit, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benu-decode:", err)
		os.Exit(1)
	}
}

func run(inPath, presetName, graphPath string, expand bool, limit int64, out io.Writer) error {
	if inPath == "" {
		return fmt.Errorf("-in is required")
	}
	if graphPath == "" && presetName == "" {
		return fmt.Errorf("need -preset or -graph to reconstruct the total order")
	}
	g, err := cli.LoadGraph(graphPath, presetName)
	if err != nil {
		return err
	}
	ord := g.InputOrder()

	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := vcbc.NewReader(f)
	if err != nil {
		return err
	}
	n := len(r.Cover()) + len(r.Free())

	w := bufio.NewWriter(out)
	defer w.Flush()

	var codes, matches int64
	for {
		c, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		codes++
		if !expand {
			matches += c.Count(r.Constraints(), ord)
			continue
		}
		done := c.Expand(n, r.Constraints(), ord, func(m []int64) bool {
			matches++
			for i, v := range m {
				if i > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprint(w, v)
			}
			fmt.Fprintln(w)
			return limit <= 0 || matches < limit
		})
		if !done {
			break
		}
	}
	fmt.Fprintf(w, "# %d codes, %d matches\n", codes, matches)
	return nil
}
