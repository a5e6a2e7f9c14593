GO ?= go

.PHONY: build test bench bench-delta bench-snapshot bench-wrap check study trace

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Regenerate every table and figure of the paper next to its numbers.
bench:
	$(GO) test -bench=. -benchmem -v

# Delta vs full evaluation head-to-head on the generated-chip ladder
# (single-core-change candidates; see scripts/bench.sh -delta).
bench-delta:
	sh scripts/bench.sh -delta

# Capture the next BENCH_<n>.json perf-trajectory snapshot, measuring
# HEAD and the working tree alternately (fails when the working tree
# regresses against HEAD; see scripts/bench.sh).
bench-snapshot:
	sh scripts/bench.sh

# Wrapped-core/TAM evaluator scaling ladder (8-128 generated cores);
# the series feeds the BENCH_<n>.json snapshots via scripts/bench.sh.
bench-wrap:
	$(GO) test -run '^$$' -bench 'BenchmarkWrappedChip' -benchmem .

# The SOCET vs wrapper vs test-bus corpus study from EXPERIMENTS.md
# (deterministic; regenerates the committed table byte-for-byte).
study:
	$(GO) run ./cmd/compare -study

# Formatting + vet + full suite under the race detector (CI entry point).
check:
	sh scripts/check.sh

# Example observability capture: full System 1 flow with span trace,
# metrics snapshot, and per-phase timing summary.
trace:
	$(GO) run ./cmd/socet -system 1 -trace socet.ndjson -metrics socet.json -v
