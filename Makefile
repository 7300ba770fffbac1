# Development targets. `make check` is the tier-1 verification gate
# (build + vet + lint + tests); `make race` adds the race detector over
# the concurrency-heavy packages; `make lint` runs the project's own
# analyzer suite (cmd/benu-lint, see docs/LINTING.md). Everything is
# stdlib-only Go — no tools to install.

GO ?= go
FUZZTIME ?= 30s

# The fault-injection suite, by test-name prefix: `chaos` runs it over
# the packages that own it, `race-chaos` over the whole module.
CHAOS_TESTS := TestChaos|TestNetChaos|TestResilient|TestTaskRetry|TestRunContext|TestLeaseExpiry|TestSteal|TestJournal|TestEpoch|TestDuplicate|TestWorkerShutdown|TestFlakyConn

.PHONY: all build test short race race-chaos vet lint bench bench-json bench-gate check diff chaos chaos-net smoke-net smoke-disk fuzz tidy-check loc clean

all: check

## build: compile every package and binary
build:
	$(GO) build ./...

## test: the full test suite (~1 min; includes the experiment regenerators)
test:
	$(GO) test ./...

## short: the quick suite (skips the experiment regenerators)
short:
	$(GO) test -short ./...

## race: race-detector pass over the full module, in -short mode so the
## experiment regenerators (already covered by `make test`) don't pay
## the ~10x race-runtime tax; every package — not a hand-picked list —
## so new concurrency can't dodge the detector by landing in an
## unlisted package
race:
	$(GO) test -race -short ./...

## race-chaos: the fault-injection suite under the race detector over
## the WHOLE module — crash recovery, epoch fencing, journal replay,
## duplicate delivery, and the RPC fault injector with -race watching
## every access. `make chaos` runs the same pattern over the four
## packages that own those tests; this lane runs ./... so a chaos test
## added anywhere else is still raced (its own CI job)
race-chaos:
	$(GO) test -race -count=1 -run '$(CHAOS_TESTS)' ./...

## diff: the differential matrix in its quick configuration — every
## preset pattern × random data graphs × plan variants × backends,
## cross-validated against the reference enumerator (see docs/TESTING.md)
diff:
	$(GO) test -short -run 'TestDifferential' ./internal/check

## chaos: fault-injected verification under the race detector — the
## resilient differential columns over transiently faulty stores
## (including the networked net-retry and net-journal columns), task
## re-execution and cancellation tests, the TCP acceptance scenario,
## the control plane's crash tests (kill-a-worker-mid-task,
## kill-the-master-mid-run with journal recovery), epoch fencing,
## duplicate-delivery dedup, and the RPC fault injector
chaos:
	$(GO) test -race -count=1 -run '$(CHAOS_TESTS)' ./internal/check ./internal/cluster ./internal/cluster/sched ./internal/kv

## chaos-net: cross-process crash recovery — SIGKILL a journaled
## benu-master mid-run and restart it on the same ports/journal
## (workers rejoin the new epoch, replay resumes exactly-once), and
## SIGKILL a benu-worker mid-run (lease expiry heals it); match counts
## cross-checked against the single-process run (tens of seconds,
## CI-gated)
chaos-net:
	./scripts/chaos_net.sh

## smoke-net: multi-process smoke — one benu-master and two benu-worker
## OS processes over loopback TCP on a small dataset, match count
## cross-checked against the single-process benu run (seconds, CI-gated)
smoke-net:
	./scripts/smoke_net.sh

## smoke-disk: disk-store smoke — build CSR files with benu-store,
## enumerate over the mmap'd disk backend (single file and sharded),
## cross-check counts against the in-memory run, and verify a
## corrupted shard fails loudly (seconds, CI-gated)
smoke-disk:
	./scripts/smoke_disk.sh

## fuzz: run each native fuzz target for $(FUZZTIME) (default 30s).
## FuzzAdjListDecode also drives the streaming bitset probe on every
## accepted input; FuzzKVReplyFrame and FuzzCSRDecode carry seeds whose
## lists name a neighbour past the vertex count
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzGraphParse -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzAdjListDecode -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzUvarint -fuzztime=$(FUZZTIME) ./internal/varint
	$(GO) test -run='^$$' -fuzz=FuzzPlanDecode -fuzztime=$(FUZZTIME) ./internal/plan
	$(GO) test -run='^$$' -fuzz=FuzzVCBCRoundTrip -fuzztime=$(FUZZTIME) ./internal/vcbc
	$(GO) test -run='^$$' -fuzz=FuzzCSRDecode -fuzztime=$(FUZZTIME) ./internal/csr
	$(GO) test -run='^$$' -fuzz=FuzzKVRequestFrame -fuzztime=$(FUZZTIME) ./internal/kv
	$(GO) test -run='^$$' -fuzz=FuzzKVReplyFrame -fuzztime=$(FUZZTIME) ./internal/kv
	$(GO) test -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/cluster/sched/journal

## vet: stock static analysis
vet:
	$(GO) vet ./...

## lint: the project's own analyzer suite — determinism, instrswitch,
## metricname, ctxflow, decodesafe, lockorder, goroleak, hotpath
## (docs/LINTING.md) over every package
lint:
	$(GO) run ./cmd/benu-lint ./...

## tidy-check: go.mod/go.sum must be tidy (CI hygiene job; needs a
## clean working tree to be meaningful)
tidy-check:
	$(GO) mod tidy
	git diff --exit-code -- go.mod go.sum
	@test -z "$$(git status --porcelain -- go.mod go.sum)" || { echo "go mod tidy changed go.mod/go.sum"; exit 1; }

## bench: micro-benchmarks and quick-mode experiment wrappers, plus the
## DB cache's hit-path pair (BenchmarkCacheGet / BenchmarkCacheGetParallel;
## for the scaling curve: go test -run '^$$' -bench CacheGet -cpu 1,2,4,8
## ./internal/cache) and the store wire's loopback round trip
## (BenchmarkTCPTrip: 1 key, 64 keys, 64 keys from every P at once;
## BenchmarkTCPBatchTwoPartitions: 8 and 64 keys over two nodes in a
## child process, one partition after the other vs scatter-then-gather)
## and the executor's intersection swap (BenchmarkIntersectHoisted, on the
## q6-deploy graph: ns/elem of merge/raw vs probe/raw is what a hoisted
## INT saves per list entry on the raw read path, merge/enc vs probe/enc
## on the compact one; mark and unmark are inside the probe rows) and the
## task window's two shapes (BenchmarkWindowFrontier: one 64-task triangle
## window of the tri-lib graph over two nodes in a child process, start
## batch + per-task ENU batches vs start batch + one frontier batch, with
## trips/window beside ns/op)
bench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/cache ./internal/kv ./internal/exec

## bench-json: machine-readable data-plane benchmark snapshot — triangle
## and q4 on the ok-s dataset over local and TCP backends plus the
## million-vertex pl-1m dataset, baseline vs prefetch+compact
## (BENCH_JSON overrides the output path)
BENCH_JSON ?= BENCH_PR6.json
bench-json:
	$(GO) run ./cmd/benu-bench -bench-json $(BENCH_JSON)

## bench-gate: regenerate the snapshot into /tmp and gate it against the
## committed BENCH_PR6.json — intra-run variant ratios plus match counts
## and loosely-bounded absolute walls (docs/PERFORMANCE.md). This is the
## CI perf-regression gate.
bench-gate:
	$(GO) run ./cmd/benu-bench -bench-json /tmp/bench-fresh.json -bench-baseline BENCH_PR6.json

## loc: added, removed and net non-test Go lines outside bench/ and
## testdata/, from BASE (a git revision, default HEAD) to the working
## tree — the line delta every change reports (make loc BASE=<rev>)
BASE ?= HEAD
loc:
	./scripts/loc.sh $(BASE)

## check: tier-1 verification — what CI (and the next PR) must keep green
check: build vet lint test race diff chaos

clean:
	$(GO) clean ./...
