#!/bin/sh
# Perf-trajectory harness: run the tracked benchmark suite, turn the
# output into a structured BENCH_<n>.json snapshot (schema in
# internal/obs/benchjson), and diff it against the previous committed
# snapshot, failing on regressions above the threshold.
#
#   scripts/bench.sh             full run; writes the next BENCH_<n>.json
#   scripts/bench.sh -smoke      1x iterations; schema + diff machinery
#                                exercised against the committed baseline
#                                with a loose threshold, nothing written
#   scripts/bench.sh -delta      delta-vs-full head-to-head on the
#                                generated-chip ladder; prints both
#                                series side by side, writes nothing
#
# Tunables (environment): BENCHTIME (full-run -benchtime, default 1s),
# THRESHOLD (allowed fractional slowdown, default 0.30 full / 100 smoke).
set -eu

cd "$(dirname "$0")/.."

MODE=full
[ "${1:-}" = "-smoke" ] && MODE=smoke
[ "${1:-}" = "-delta" ] && MODE=delta

if [ "$MODE" = delta ]; then
    BT=${BENCHTIME:-1s}
    echo "==> delta vs full on the generated-chip ladder (-benchtime $BT)"
    go test -run '^$' -bench 'BenchmarkGeneratedChip(Full)?$' -benchmem -benchtime "$BT" .
    exit 0
fi

REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
DATE=$(date -u +%Y-%m-%d)
RAW=$(mktemp)
trap 'rm -f "$RAW" /tmp/bench_smoke_$$.json' EXIT

if [ "$MODE" = smoke ]; then
    BT=1x
    THRESHOLD=${THRESHOLD:-100}
else
    BT=${BENCHTIME:-1s}
    THRESHOLD=${THRESHOLD:-0.30}
fi

# The tracked suite: the enumeration benches (serial/parallel),
# the generated-chip scaling ladder, the TAT walk on 64 and 256 generated
# cores, core prepare stage by stage (synth, hscan, versions and the whole
# prepare) on 256 generated cores, the wrapped-core/TAM evaluator, the
# degradation campaign, ATPG (GCD), fault simulation (CPU) and
# reverse-order compaction, the interconnect plan and one justification
# search (System 1 and 256 generated cores each), and the obs overhead
# micro-benches. One raw stream; pkg: headers keep names unambiguous.
echo "==> bench suite (-benchtime $BT)"
go test -run '^$' -bench 'BenchmarkEnumerate' -benchmem -benchtime "$BT" ./internal/explore/ | tee "$RAW"
go test -run '^$' -bench 'BenchmarkGeneratedChip|BenchmarkImproveWalk|BenchmarkPrepareStages|BenchmarkWrappedChip|BenchmarkDegradationCampaign|BenchmarkATPGGCD|BenchmarkFaultSimCPU|BenchmarkAblationCompaction|BenchmarkInterconnectPlan|BenchmarkCCGShortestPath' -benchmem -benchtime "$BT" . | tee -a "$RAW"
go test -run '^$' -bench '.' -benchmem -benchtime "$BT" ./internal/obs/ | tee -a "$RAW"

# Latest committed snapshot, if any (BENCH_10 sorts after BENCH_9).
PREV=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)

if [ "$MODE" = smoke ]; then
    OUT=/tmp/bench_smoke_$$.json
    echo "==> benchsnap -parse (smoke)"
    go run ./cmd/benchsnap -parse -rev "$REV" -date "$DATE" -in "$RAW" -out "$OUT"
    echo "==> benchsnap -check"
    go run ./cmd/benchsnap -check "$OUT"
    if [ -n "$PREV" ]; then
        # A 1x run measures true cost plus ~1µs of harness overhead, so
        # sub-10µs baselines (the obs micro-benches) are pure noise here;
        # the floor skips them. The full run diffs with no floor.
        echo "==> benchsnap -diff $PREV (loose threshold $THRESHOLD, floor 10us)"
        go run ./cmd/benchsnap -diff "$PREV,$OUT" -threshold "$THRESHOLD" -floor 10000
    else
        echo "==> no committed BENCH_*.json yet; diff skipped"
    fi
    echo "==> bench smoke ok"
    exit 0
fi

if [ -n "$PREV" ]; then
    N=$(( $(printf '%s' "$PREV" | sed 's/BENCH_\([0-9]*\).json/\1/') + 1 ))
else
    N=0
fi
OUT=BENCH_$N.json
echo "==> benchsnap -parse -> $OUT"
go run ./cmd/benchsnap -parse -rev "$REV" -date "$DATE" -in "$RAW" -out "$OUT"
go run ./cmd/benchsnap -check "$OUT"
if [ -n "$PREV" ]; then
    echo "==> benchsnap -diff $PREV,$OUT (threshold $THRESHOLD)"
    go run ./cmd/benchsnap -diff "$PREV,$OUT" -threshold "$THRESHOLD"
fi
echo "==> wrote $OUT"
