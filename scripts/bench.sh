#!/bin/sh
# Perf-trajectory harness: run the tracked benchmark suite, turn the
# output into a structured BENCH_<n>.json snapshot (schema in
# internal/obs/benchjson), and gate on regressions above the threshold.
#
# A full run measures the parent (the committed HEAD, extracted into a
# temporary directory) and the change (the working tree) together,
# alternating per benchmark family, and fails on a benchmark the
# change makes slower than the parent by more than the threshold. Each
# family runs five rounds per side, the sides alternating within each
# round, and the snapshot holds each benchmark's median over its five
# samples, so neither one slow sample nor a burst of host load during
# one side's run fails it. A diff
# against the previous committed snapshot, taken on another day and
# maybe another host, is printed as trajectory information only: host
# drift between the two captures reads as a regression there.
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
WORK=$(mktemp -d)
trap 'rm -rf "$RAW" "$WORK"' EXIT

if [ "$MODE" = smoke ]; then
    BT=1x
    THRESHOLD=${THRESHOLD:-100}
else
    BT=${BENCHTIME:-1s}
    COUNT=5
    THRESHOLD=${THRESHOLD:-0.30}
fi

# The tracked suite, one benchmark family per line: the package, then
# its -bench regexp. The enumeration benches (serial/parallel), the
# generated-chip scaling ladder, the TAT walk on 64 and 256 generated
# cores, core prepare stage by stage (synth, hscan, versions and the
# whole prepare) on 256 generated cores, the wrapped-core/TAM evaluator,
# the degradation campaign, ATPG (GCD, and each of System 1's CPU,
# PREPROCESSOR and DISPLAY, at the default worker count and at one),
# fault simulation (CPU) and reverse-order compaction, the
# interconnect plan and one justification search (System 1 and 256
# generated cores each), and the obs overhead micro-benches.
FAMILIES='./internal/explore/ BenchmarkEnumerate
. BenchmarkGeneratedChip
. BenchmarkImproveWalk
. BenchmarkPrepareStages
. BenchmarkWrappedChip
. BenchmarkDegradationCampaign
. BenchmarkATPGGCD
. BenchmarkATPGSystem1
. BenchmarkFaultSimCPU
. BenchmarkAblationCompaction
. BenchmarkInterconnectPlan
. BenchmarkCCGShortestPath
./internal/obs/ .'

# family DIR OUT PKG RE runs one family in the tree at DIR and appends
# its output to OUT. One raw stream per tree; pkg: headers keep names
# unambiguous, and benchsnap folds a benchmark's repeated samples into
# their median.
family() {
    (cd "$1" && go test -run '^$' -bench "$4" -benchmem -benchtime "$BT" "$3") | tee -a "$2"
}

# Latest committed snapshot, if any (BENCH_10 sorts after BENCH_9).
PREV=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)

if [ "$MODE" = smoke ]; then
    echo "==> bench suite (-benchtime $BT)"
    echo "$FAMILIES" | while read -r pkg re; do family . "$RAW" "$pkg" "$re"; done
    OUT=$WORK/smoke.json
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

PARENT=$WORK/parent
PRAW=$WORK/parent.txt
mkdir "$PARENT"
git archive HEAD | tar -x -C "$PARENT"
# Run each family on both trees back to back, COUNT rounds, alternating
# which side goes first, so neither always runs on a cooler or warmer
# host. One side's run of a family takes seconds; a burst of host load
# that lasts as long falls on one side's sample of one round, where
# -count would have put all of that side's samples inside it.
k=0
echo "$FAMILIES" | while read -r pkg re; do
    r=0
    while [ $r -lt $COUNT ]; do
        r=$((r + 1))
        k=$((k + 1))
        if [ $((k % 2)) -eq 1 ]; then
            echo "==> $re round $r/$COUNT: parent ($REV), then change (-benchtime $BT)"
            family "$PARENT" "$PRAW" "$pkg" "$re"
            family . "$RAW" "$pkg" "$re"
        else
            echo "==> $re round $r/$COUNT: change, then parent ($REV) (-benchtime $BT)"
            family . "$RAW" "$pkg" "$re"
            family "$PARENT" "$PRAW" "$pkg" "$re"
        fi
    done
done

if [ -n "$PREV" ]; then
    N=$(( $(printf '%s' "$PREV" | sed 's/BENCH_\([0-9]*\).json/\1/') + 1 ))
else
    N=0
fi
OUT=BENCH_$N.json
echo "==> benchsnap -parse -> $OUT"
go run ./cmd/benchsnap -parse -rev "$REV" -date "$DATE" -in "$PRAW" -out "$WORK/parent.json"
go run ./cmd/benchsnap -parse -rev "$REV" -date "$DATE" -in "$RAW" -out "$OUT"
go run ./cmd/benchsnap -check "$OUT"
if [ -n "$PREV" ]; then
    echo "==> trajectory: benchsnap -diff $PREV,$OUT (information only, not the gate)"
    go run ./cmd/benchsnap -diff "$PREV,$OUT" -threshold "$THRESHOLD" || true
fi
echo "==> gate: benchsnap -diff parent,change (threshold $THRESHOLD)"
go run ./cmd/benchsnap -diff "$WORK/parent.json,$OUT" -threshold "$THRESHOLD"
echo "==> wrote $OUT"
