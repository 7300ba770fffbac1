//go:build unix

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spec is BENCHMARK.json: the contract the bench's output is checked
// against, and where -compare takes each metric's bound from.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: relative worsening that counts as a regression
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the driver's measure).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quantile := func(k int) float64 { // k-th of 4, exclusive method
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quantile(3) - quantile(1)) / med
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// -out files, a being the parent: ok, worse (b's median is worse than
// a's by more than the metric's bound), or unresolved (a side's
// repetition-to-repetition spread is wider than the bound, so the
// difference cannot be told from noise). It reports whether any row is
// worse.
func compareFiles(a, b string) (bool, error) {
	root, err := findRoot()
	if err != nil {
		return false, err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return false, err
	}
	fa, err := readResult(a)
	if err != nil {
		return false, err
	}
	fb, err := readResult(b)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Printf("%-16s %-12s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "change", "spread-a", "spread-b", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			ma, oka := fa.Workloads[w.Name]["end_to_end"].Metrics[m.Name]
			mb, okb := fb.Workloads[w.Name]["end_to_end"].Metrics[m.Name]
			if !oka || !okb || ma.Value == 0 {
				return false, fmt.Errorf("%s/%s missing from one of the files", w.Name, m.Name)
			}
			change := (mb.Value - ma.Value) / ma.Value
			if m.Better == "higher" {
				change = -change
			}
			sa, sb := quartileSpread(ma.Samples), quartileSpread(mb.Samples)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Printf("%-16s %-12s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, ma.Value, mb.Value, 100*change, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return anyWorse, nil
}
