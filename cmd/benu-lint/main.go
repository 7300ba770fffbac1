// Command benu-lint is the project's multichecker: it runs the custom
// analyzer suite (internal/lint) over the packages named on the command
// line — ./... by default — and exits nonzero when any invariant is
// violated. It is wired into `make lint`, which `make check` and CI run
// as a tier of the verification gate.
//
// Usage:
//
//	benu-lint [-list] [packages...]
//
// Findings print as file:line:col: [analyzer] message. The whole-tree
// checks (metric doc drift) run only when linting ./... — a package
// subset cannot prove a documented metric unused.
package main

import (
	"flag"
	"fmt"
	"os"

	"benu/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benu-lint [-list] [packages...]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the BENU analyzer suite (see docs/LINTING.md) over the named\npackages (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Doc-drift checks need the whole tree in view.
	cross := len(patterns) == 1 && patterns[0] == "./..."

	findings, err := lint.Run(".", patterns, lint.Options{CrossPackage: cross})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benu-lint:", err)
		os.Exit(2)
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "benu-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
