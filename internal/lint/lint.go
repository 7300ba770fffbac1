// Package lint bundles the project's custom analyzers into one suite —
// the library behind cmd/benu-lint and the in-repo smoke test. Each
// analyzer enforces an invariant the Go compiler cannot see; together
// they are the static half of the correctness story whose dynamic half
// is the differential matrix (internal/check). docs/LINTING.md is the
// user-facing reference.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"

	"benu/internal/lint/analysis"
	"benu/internal/lint/ctxflow"
	"benu/internal/lint/decodesafe"
	"benu/internal/lint/determinism"
	"benu/internal/lint/goroleak"
	"benu/internal/lint/hotpath"
	"benu/internal/lint/instrswitch"
	"benu/internal/lint/lockorder"
	"benu/internal/lint/metricname"
)

// Analyzers returns the project's analyzer suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		decodesafe.Analyzer,
		determinism.Analyzer,
		goroleak.Analyzer,
		hotpath.Analyzer,
		instrswitch.Analyzer,
		lockorder.Analyzer,
		metricname.Analyzer,
	}
}

// Finding is one diagnostic with its source position resolved.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	if f.Pos.Filename == "" {
		return fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
	}
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Options configures a suite run.
type Options struct {
	// CrossPackage enables the whole-tree checks (metricname's
	// documented-but-unregistered direction). Leave it off when linting
	// a package subset — a metric registered outside the subset would
	// otherwise read as doc drift.
	CrossPackage bool

	// DocFile overrides the metrics reference location (defaults to
	// docs/METRICS.md under the module root of dir).
	DocFile string
}

// Run loads the packages matched by patterns (relative to dir) and
// applies the full analyzer suite, returning findings sorted by
// position. A non-nil error means the run itself failed (load or
// type-check error); lint findings are data, not errors.
func Run(dir string, patterns []string, opts Options) ([]Finding, error) {
	docFile := opts.DocFile
	if docFile == "" {
		root, err := analysis.ModuleRoot(dir)
		if err != nil {
			return nil, err
		}
		docFile = filepath.Join(root, "docs", "METRICS.md")
	}
	metricname.DocFile = docFile

	fset, pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}

	var findings []Finding
	results := make(map[*analysis.Analyzer][]any)
	for _, a := range Analyzers() {
		for _, pkg := range pkgs {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					findings = append(findings, Finding{Analyzer: a.Name, Pos: fset.Position(d.Pos), Message: d.Message})
				},
			}
			res, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			if res != nil {
				results[a] = append(results[a], res)
			}
		}
	}
	if opts.CrossPackage {
		for _, a := range Analyzers() {
			if a.Finish == nil {
				continue
			}
			err := a.Finish(results[a], func(d analysis.Diagnostic) {
				findings = append(findings, Finding{Analyzer: a.Name, Pos: fset.Position(d.Pos), Message: d.Message})
			})
			if err != nil {
				return nil, fmt.Errorf("lint: %s finish: %w", a.Name, err)
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}
