# Build / verify / benchmark entry points.
#
#   make vet       - go vet
#   make test      - tier-1 (go build ./... && go test ./...)
#   make test-race - the full suite under the race detector with two
#                    scheduler Ps (GOMAXPROCS=2, -count=1): every parity,
#                    chaos, cluster and observability suite runs here with
#                    real goroutine preemption, catching replica-state leaks
#                    between pooled/concurrent scans and scheduler races.
#                    The zero-alloc guards run un-raced in make test.
#   make bench-test - vet and test the benchmark module: bench/ is its own
#                    Go module, so go test ./... does not reach it
#   make ci        - what CI runs: vet + tier-1 + test-race + bench-test +
#                    load-smoke + bench-compare
#   make bench     - vet + tier-1 + race + the scan-engine benchmarks;
#                    appends the parsed results to BENCH_scan.json so the
#                    perf trajectory is tracked across PRs
#   make bench-all - same, but runs the full benchmark suite (minutes)
#   make bench-compare - diff the last two BENCH_scan.json entries and warn
#                    on >10% throughput regressions in probes/s, jobs/s or
#                    ticks/s (STRICT=1 to fail on one; check the recorded
#                    num_cpu before blaming the code)
#   make load      - run the scand load generator (mixed attack scenarios
#                    through the service scheduler) and append a jobs/s +
#                    p50/p99 latency entry to BENCH_scan.json, then repeat
#                    through a 4-instance hash-routed cluster on the zipfian
#                    victim skew (the LoadCluster row: session_hit_rate is
#                    the affinity metric bench_compare watches)
#   make load-smoke - a short scand -load pass (mixed workload incl. the
#                    stateful behaviorspy/appfingerprint kinds, nothing
#                    recorded) — the CI smoke that the whole service stack
#                    serves every kind end to end

GO ?= go

.PHONY: all vet test test-race bench-test ci bench bench-all bench-compare load load-smoke

all: vet test

ci: vet test test-race bench-test load-smoke bench-compare

vet:
	$(GO) vet ./...

test:
	$(GO) build ./...
	$(GO) test ./...

# -count=1: the test cache does not key on GOMAXPROCS, so without it this
# target would silently reuse results from a different P count.
test-race:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./...

bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench: vet test
	./scripts/bench.sh 'BenchmarkScan|BenchmarkUserScan|BenchmarkTermSweep|BenchmarkBehaviorSpy|BenchmarkDefenseMatrix|BenchmarkExecMasked|BenchmarkProbeMapped|BenchmarkProbeBatch'

bench-all: vet test
	./scripts/bench.sh '.'

bench-compare:
	./scripts/bench_compare.sh

load:
	$(GO) run ./cmd/scand -load -scan-workers 2
	$(GO) run ./cmd/scand -load -scan-workers 2 -cluster 4 -load-dist zipfian

load-smoke:
	$(GO) run ./cmd/scand -load -jobs 30 -concurrency 6 -victims 5 -scan-workers 2 -bench-out ''
