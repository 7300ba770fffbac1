package main

import (
	"os"
	"path/filepath"
	"testing"

	"benu/internal/lint"
)

// TestRepoIsLintClean is the self-hosting smoke test: the analyzer
// suite, run exactly as `make lint` runs it, must report nothing on
// this repository. A failure here means either a real invariant
// violation slipped in or an analyzer grew a false positive — both are
// ship-blockers for the lint tier.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lint smoke compiles the whole tree; skipped in -short")
	}
	findings, err := lint.Run("../..", []string{"./..."}, lint.Options{CrossPackage: true})
	if err != nil {
		t.Fatalf("lint run failed: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("repository is not lint-clean: %d finding(s); run `make lint` for details", len(findings))
	}
}

// TestAnalyzerInventory pins the suite composition: removing an
// analyzer from the bundle should be a deliberate, test-breaking act.
func TestAnalyzerInventory(t *testing.T) {
	want := map[string]bool{
		"ctxflow":     true,
		"decodesafe":  true,
		"determinism": true,
		"goroleak":    true,
		"hotpath":     true,
		"instrswitch": true,
		"lockorder":   true,
		"metricname":  true,
	}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in suite", a.Name)
		}
	}
}

// TestListSelfCheck backs `benu-lint -list`: every registered analyzer
// must carry a doc string (that is what -list prints) and a golden
// fixture module under internal/lint/<name>/testdata/mod — an analyzer
// without fixture coverage is an analyzer whose regressions nobody
// catches.
func TestListSelfCheck(t *testing.T) {
	for _, a := range lint.Analyzers() {
		if a.Name == "" {
			t.Fatal("analyzer with empty name in suite")
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc string (-list would print a blank line)", a.Name)
		}
		fixture := filepath.Join("..", "..", "internal", "lint", a.Name, "testdata", "mod")
		info, err := os.Stat(fixture)
		if err != nil {
			t.Errorf("analyzer %q has no golden fixture: %v", a.Name, err)
			continue
		}
		if !info.IsDir() {
			t.Errorf("analyzer %q fixture path %s is not a directory", a.Name, fixture)
		}
		if _, err := os.Stat(filepath.Join(fixture, "go.mod")); err != nil {
			t.Errorf("analyzer %q fixture is not a self-contained module: %v", a.Name, err)
		}
	}
}
