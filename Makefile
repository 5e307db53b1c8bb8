GO ?= go

.PHONY: all build test race vet fmt lint check bench bench-smoke bench-nrhs clean obs-smoke service-smoke crash-drill cluster-drill compare-baseline chaos prof-overhead-guard

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing the unformatted files (fix with gofmt -w).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; fi

# staticcheck when installed, a loud skip when not — no new dependencies.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi

check: fmt build lint test race

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# Quick pass over the hot-path kernel benchmarks (docs/performance.md): a
# few iterations each, -benchmem so an alloc regression in the steady-state
# solve loop shows up as non-zero allocs/op. SetupQuickSuite is the set-up
# layer's number: one FSAIE(full) set-up of each QuickSuite matrix per op.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SpMV|FusedBlas1|PCGIteration|EngineDot|SetupQuickSuite' \
		-benchtime 10x -benchmem \
		./internal/sparse/ ./internal/kernels/ ./internal/krylov/ ./internal/core/

# Multi-RHS amortization check (docs/performance.md, "Batched solving"):
# the SpMM and block-PCG benchmarks across block widths (per-RHS ns drops
# with k), plus the fsaibench -nrhs campaign, which also proves the block
# solve's columns bit-identical to the scalar solves. The campaign's
# deterministic metrics are gated against the committed multi-RHS baseline
# (regenerate with `go run ./cmd/fsaibench -nrhs 8 -metrics-out
# BENCH_nrhs_baseline.json`), and the candidate's per-RHS numbers are
# appended to BENCH_history.json via fsaicompare -record.
bench-nrhs:
	$(GO) test -run '^$$' -bench 'SpMM|BlockPCGIteration' \
		-benchtime 10x -benchmem ./internal/sparse/ ./internal/krylov/
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/fsaibench -nrhs 8 -metrics-out "$$tmp/nrhs.json" && \
	$(GO) run ./cmd/fsaicompare -record BENCH_history.json \
		BENCH_nrhs_baseline.json "$$tmp/nrhs.json"

# Start fsaisolve with the observability server on a generated matrix and
# scrape /metrics, /debug/solve (incl. SSE), /debug/pprof/ and /runs.
obs-smoke:
	./scripts/obs_smoke.sh

# Start the fsaid solve daemon on a free port, register a matrix, run a
# cold then a warm solve, and assert the preconditioner cache made the warm
# solve skip setup (plus 429 backpressure and graceful shutdown).
service-smoke:
	./scripts/service_smoke.sh

# Crash-recovery drill: cold solve into a durable -data-dir, SIGKILL the
# daemon mid-solve, restart and assert a warm bit-identical solve from the
# recovered store, then bit-flip the stored factor and assert it is
# quarantined without taking the daemon down (docs/robustness.md).
crash-drill:
	./scripts/crash_drill.sh

# Distributed-fleet drill: three store-backed shards behind a consistent-hash
# router, register/solve through the router, hot-factor replication to the
# replica, SIGKILL the primary mid-traffic with zero failed client requests
# and a bit-identical failover solve, shard restart and rebalance, and a
# routed-vs-direct warm overhead record into BENCH_history.json
# (docs/cluster.md).
cluster-drill:
	./scripts/cluster_drill.sh

# Perf-regression gate: reproduce the committed BENCH_baseline.json run and
# diff the deterministic metrics with fsaicompare.
compare-baseline:
	./scripts/compare_baseline.sh

# Continuous-profiling overhead gate (docs/observability.md): measure the
# sampler's per-window bookkeeping under load and fail if the projected
# overhead at the default window/gap cadence reaches 2%. Run without -short
# (the test skips under -short); -count=1 defeats the test cache so the
# timing is from this machine, now.
prof-overhead-guard:
	$(GO) test -run 'TestSamplerOverheadBudget' -count=1 -v ./internal/prof/

# Fault-injection chaos suite: seeded injectors corrupting SpMV outputs,
# diagonals and computed factors, with the recovery chain proving detection,
# attribution and recovery under the race detector (docs/robustness.md).
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/ ./internal/resilience/ \
		./internal/krylov/ ./internal/parallel/

clean:
	$(GO) clean ./...
