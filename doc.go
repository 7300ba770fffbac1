// Package benu is a from-scratch Go implementation of BENU, the
// distributed subgraph enumeration framework of Wang et al. (ICDE 2019):
// "BENU: Distributed Subgraph Enumeration with Backtracking-Based
// Framework".
//
// The library is organized as internal packages, each owning one system
// from the paper:
//
//   - internal/graph — graph model, symmetry breaking, total order,
//     brute-force reference enumerator;
//   - internal/plan — execution plans, the three optimization passes,
//     VCBC-compression rewrite, cost model and the best-plan search
//     (Algorithm 3);
//   - internal/exec — the backtracking plan interpreter with the
//     per-thread triangle cache;
//   - internal/kv — the distributed adjacency-set store (in-process and
//     TCP/net-rpc backends);
//   - internal/cache — the per-machine database cache (lock-free reads,
//     second-chance eviction);
//   - internal/vcbc — the compressed-result codec;
//   - internal/cluster — the simulated shared-nothing cluster with task
//     generation and task splitting;
//   - internal/obs — the observability layer: a concurrency-safe metrics
//     registry (counters, gauges, bounded histograms, task spans) every
//     runtime package reports into, surfaced through Options.Observer,
//     Options.Metrics, and the -metrics command-line flags (the metric
//     name reference is docs/METRICS.md);
//   - internal/join — the BFS-style baselines (TwinTwig left-deep join
//     and a BiGJoin-style worst-case optimal join);
//   - internal/gen — synthetic datasets and the evaluation patterns;
//   - internal/estimate — cardinality estimation for the planner;
//   - internal/experiments — regenerators for every table and figure of
//     the paper's evaluation.
//
// The benchmarks in bench_test.go regenerate each table/figure; the
// executables under cmd/ expose the same functionality on the command
// line, and examples/ holds runnable application scenarios.
package benu
