//go:build unix

// Command bench is the repository's benchmark: four closed-loop,
// one-job-at-a-time workloads through the entry points operators and
// library users actually use (real benu-master + benu-worker processes
// with the journal on; benu.DialStore + benu.RunOnStore against a store
// process), every repetition's match count checked against a
// single-thread reference, plus a layers pass and a traced in-process
// twin that attribute each wall to the packages below it. See README.md
// for the metric tables and BENCHMARK.json for names, units and bounds.
//
//	bench -workload tri-deploy -seed 7 -seconds 20 -trace 0   one run, end-to-end metrics
//	bench -workload tri-deploy -seed 7 -seconds 20 -trace 1   one run, per-layer metrics
//	bench -out result.json [-seed 7] [-seconds 20]            every workload, both passes
//	bench -compare a.json b.json                              bound check between two -out files
//
// The last line of standard output of a -workload run is one JSON object
// {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples are the per-repetition values behind a median (end-to-end
	// metrics only); -compare reads the run-to-run spread off them.
	Samples []float64 `json:"samples,omitempty"`
}

// runResult is one -workload run: what the final JSON line carries.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"` // tasks attempted over all repetitions
	Failed    int               `json:"failed"`    // of those: retried, failed, lease-expired, or in a failed repetition
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json); empty with -out runs all")
		seed    = flag.Int64("seed", 7, "input seed: draws the vertex relabelling of the workload graph")
		seconds = flag.Int("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics (layers pass + traced twin)")
		scale   = flag.String("scale", "full", "workload sizes: full, or smoke (the self-test's few-second cut)")
		out     = flag.String("out", "", "write the results of every workload, both passes, to this JSON file")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	runChild()
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare a.json b.json")
			break
		}
		var worse bool
		if worse, err = compareFiles(flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	default:
		err = runBench(*name, *scale, *out, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runChild turns this process into one of the library path's children
// when it was started as `bench -child store|job …` (see lib.go), and
// returns otherwise. The self-test's TestMain calls it too: there the
// re-executed binary is the test binary.
func runChild() {
	if len(os.Args) < 3 || os.Args[1] != "-child" {
		return
	}
	var err error
	switch args := os.Args[3:]; {
	case os.Args[2] == "store" && len(args) == 1:
		err = childStore(args[0])
	case os.Args[2] == "job" && len(args) == 4:
		err = childJob(args[0], args[1], args[2], args[3])
	default:
		err = fmt.Errorf("bad -child invocation %q", os.Args[2:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Go        string                          `json:"go"`
	NumCPU    int                             `json:"nproc"`
	Seed      int64                           `json:"seed"`
	Seconds   int                             `json:"seconds"`
	Scale     string                          `json:"scale"`
	Workloads map[string]map[string]runResult `json:"workloads"` // workload → "end_to_end" | "per_layer"
}

func runBench(name, scale, out string, seed int64, seconds, trace int) error {
	set, err := workloadSet(scale)
	if err != nil {
		return err
	}
	if name == "" && out == "" {
		return fmt.Errorf("need -workload <name> or -out <file>")
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	// An interrupted bench must not leave a master, a worker or a store
	// child behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	defer e.close()

	if name != "" {
		w, err := findWorkload(scale, name)
		if err != nil {
			return err
		}
		res, err := e.runWorkload(w, scale, seed, seconds, trace)
		if err != nil {
			return err
		}
		printResult(w.name, res)
		line, err := json.Marshal(res.slim())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return errIncorrect
		}
		return nil
	}

	file := resultFile{Go: runtime.Version(), NumCPU: runtime.NumCPU(), Seed: seed, Seconds: seconds,
		Scale: scale, Workloads: map[string]map[string]runResult{}}
	correct := true
	for _, w := range set {
		file.Workloads[w.name] = map[string]runResult{}
		for tr, pass := range []string{"end_to_end", "per_layer"} {
			res, err := e.runWorkload(w, scale, seed, seconds, tr)
			if err != nil {
				return err
			}
			printResult(w.name, res)
			file.Workloads[w.name][pass] = *res
			correct = correct && res.Correct
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

var errIncorrect = errors.New("a repetition failed or its match count differed from the reference")

// slim drops the per-repetition samples: the driver's result line
// carries exactly value and unit.
func (r *runResult) slim() runResult {
	s := *r
	s.Metrics = make(map[string]metric, len(r.Metrics))
	for k, m := range r.Metrics {
		s.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
	}
	return s
}

// printResult lists every metric by name with its unit.
func printResult(workload string, r *runResult) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Printf("%-16s %-32s %14.6g %-6s", workload, k, m.Value, m.Unit)
		if n := len(m.Samples); n > 0 {
			s := append([]float64(nil), m.Samples...)
			sort.Float64s(s)
			fmt.Printf(" median of %d (min %.6g, max %.6g)", n, s[0], s[n-1])
		}
		fmt.Println()
	}
	fmt.Printf("%-16s correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
}
