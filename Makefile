# Build / verify / benchmark entry points.
#
#   make vet       - go vet, and fail on any file gofmt would change
#                    (the walk covers bench/ too)
#   make test      - tier-1 (go build ./... && go test ./...)
#   make test-race - the full suite under the race detector with two
#                    scheduler Ps (GOMAXPROCS=2, -count=1): every parity,
#                    chaos and observability suite runs here with
#                    real goroutine preemption, catching replica-state leaks
#                    between pooled/concurrent scans and scheduler races.
#                    The zero-alloc guards run un-raced in make test.
#   make bench-test - vet and test the benchmark module: bench/ is its own
#                    Go module, so go test ./... does not reach it
#   make bench-smoke - one short seeded bench/run.sh pass per workload
#                    declared in BENCHMARK.json, determinism oracle on;
#                    fails on any failed or inconsistent job
#   make bench-check - every Go benchmark body once (-benchtime 1x), so a
#                    benchmark or its b.Fatal guard cannot rot unseen
#   make examples  - run every examples/* program; fails on a non-zero exit
#                    (appspy exits 1 unless it classifies every profile)
#   make fuzz-smoke - run each differential/round-trip fuzz target for
#                    FUZZTIME (10s) beyond its seed corpus: the TLB/PSC and
#                    PTE-line caches against their reference models, and
#                    the machine snapshot round trip
#   make ci        - what CI runs: vet + tier-1 + test-race + bench-check +
#                    examples + bench-test + bench-smoke + fuzz-smoke
#   make bench     - the Go micro-benchmarks under internal/ (machine ops,
#                    the per-VA and batched probes, scan sweeps, the
#                    defense matrix through the scheduler, one cold
#                    session build per spatial spec, each temporal
#                    spec's build cold and replayed); prints the results
#                    and records nothing. End-to-end numbers come from
#                    bench/run.sh (see bench/README.md); paper claims and
#                    ablations are checked by internal/experiments.

GO ?= go

BENCH_WORKLOADS = spatial-hot spatial-cold mixed-zipf temporal-stateful

FUZZTIME ?= 10s

.PHONY: all vet test test-race bench-check examples bench-test bench-smoke fuzz-smoke ci bench

all: vet test

ci: vet test test-race bench-check examples bench-test bench-smoke fuzz-smoke

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) build ./...
	$(GO) test ./...

# -count=1: the test cache does not key on GOMAXPROCS, so without it this
# target would silently reuse results from a different P count.
test-race:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./...

bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

examples:
	set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d; \
	done

bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-smoke:
	set -e; for w in $(BENCH_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0; \
	done

# go test -fuzz takes one target in one package per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTLBPSCMatchReference$$' -fuzztime $(FUZZTIME) ./internal/tlb
	$(GO) test -run '^$$' -fuzz '^FuzzMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/ptecache
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/machine

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...
