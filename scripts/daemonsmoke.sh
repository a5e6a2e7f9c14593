#!/bin/sh
# Daemon crash smoke: start socetd, submit a sharded campaign over HTTP,
# SIGKILL the daemon mid-flight, restart it on the same state directory,
# and require the recovered job's result to be byte-identical to the
# single-process `compare -campaign` golden. The restarted daemon runs
# on one slot (-workers 1), so the recovered campaign and the System 1
# evaluate job share it end to end. Then evaluate System 1 on the
# restarted daemon, finish with a SIGTERM drain, require a clean
# exit, and require the restarted daemon's metrics to show that it took
# System 1's test sets from the state directory's store instead of
# running ATPG again. This is the end-to-end complement of the
# in-process crash tests in internal/serve/job.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    if [ -n "$DAEMON_PID" ]; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

RUNS=24
SIZE=2
SEED=5
SPEC="{\"type\":\"campaign\",\"chip\":{\"system\":1},\"shards\":4,\"runs\":$RUNS,\"set_size\":$SIZE,\"seed\":$SEED}"

go build -o "$WORK/socetd" ./cmd/socetd
go build -o "$WORK/compare" ./cmd/compare

echo "==> golden: single-process compare -campaign"
"$WORK/compare" -system 1 -campaign "$RUNS" -campaign-size "$SIZE" -campaign-seed "$SEED" > "$WORK/golden.txt"

# start_daemon launches socetd on the shared state dir, with any extra
# flags given, and sets ADDR from its "listening on" line (the daemon
# binds port 0).
start_daemon() {
    : > "$WORK/log.txt"
    "$WORK/socetd" -dir "$WORK/state" -addr 127.0.0.1:0 -checkpoint-every 1ms "$@" 2>> "$WORK/log.txt" &
    DAEMON_PID=$!
    i=0
    while ! grep -q "listening on" "$WORK/log.txt"; do
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            echo "daemon died at startup:" >&2
            cat "$WORK/log.txt" >&2
            exit 1
        fi
        i=$((i + 1))
        [ "$i" -gt 600 ] && { echo "daemon never came up" >&2; exit 1; }
        sleep 0.05
    done
    ADDR=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$WORK/log.txt" | head -1)
    [ -n "$ADDR" ] || { echo "could not parse daemon address" >&2; cat "$WORK/log.txt" >&2; exit 1; }
}

echo "==> start daemon, submit the sharded campaign"
start_daemon
curl -sf -X POST --data "$SPEC" "http://$ADDR/jobs" > "$WORK/submit.json"
JOB=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$WORK/submit.json" | head -1)
[ -n "$JOB" ] || { echo "submit returned no job id:" >&2; cat "$WORK/submit.json" >&2; exit 1; }
echo "    submitted $JOB to $ADDR"

echo "==> SIGKILL the daemon once the job has checkpointed"
i=0
while true; do
    if ls "$WORK/state/job-$JOB".shard*.ck >/dev/null 2>&1; then
        break
    fi
    i=$((i + 1))
    # Finished jobs delete their checkpoints; the restart then only has
    # to serve the journaled result, which the diff below still gates.
    # Checked rarely — the tight ls loop is what catches the window.
    if [ $((i % 100)) -eq 0 ] && curl -s "http://$ADDR/jobs/$JOB" | grep -q '"state": "done"'; then
        echo "    (job finished before the kill landed)"
        break
    fi
    [ "$i" -gt 12000 ] && { echo "job never checkpointed" >&2; cat "$WORK/log.txt" >&2; exit 1; }
    sleep 0.01
done
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
echo "    killed daemon ($(ls "$WORK/state" | wc -l | tr -d ' ') files in state dir)"

echo "==> restart on the same state dir, on one slot; fetch the recovered result"
start_daemon -workers 1 -metrics "$WORK/metrics.json"
curl -sf "http://$ADDR/jobs/$JOB/result?wait=5m" > "$WORK/result.txt"

echo "==> diff recovered result vs single-process golden"
if ! diff -u "$WORK/golden.txt" "$WORK/result.txt"; then
    echo "recovered result is not byte-identical to the golden" >&2
    exit 1
fi

echo "==> evaluate System 1 on the restarted daemon"
curl -sf -X POST --data '{"type":"evaluate","chip":{"system":1}}' "http://$ADDR/jobs" > "$WORK/submit.json"
EVAL=$(sed -n 's/.*"id": "\([^"]*\)".*/\1/p' "$WORK/submit.json" | head -1)
[ -n "$EVAL" ] || { echo "submit returned no job id:" >&2; cat "$WORK/submit.json" >&2; exit 1; }
curl -sf "http://$ADDR/jobs/$EVAL/result?wait=5m" | grep -q '^tat ' || { echo "evaluate $EVAL returned no tat line" >&2; exit 1; }

echo "==> graceful drain (SIGTERM)"
kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
    echo "daemon exited non-zero on SIGTERM:" >&2
    cat "$WORK/log.txt" >&2
    exit 1
fi
DAEMON_PID=""
grep -q "drained" "$WORK/log.txt" || { echo "daemon log missing drain confirmation" >&2; cat "$WORK/log.txt" >&2; exit 1; }

# Whether the restart recovered the campaign or only served its journaled
# result, the first daemon prepared System 1 before the kill, so every
# test set the restarted daemon needed was in the store.
echo "==> restarted daemon reused System 1's test sets (no ATPG)"
HITS=$(sed -n 's/.*"atpg.store_hits": \([0-9]*\).*/\1/p' "$WORK/metrics.json")
if [ "${HITS:-0}" -lt 3 ] || grep -q '"atpg.backtracks": [1-9]' "$WORK/metrics.json"; then
    echo "want >= 3 atpg.store_hits and no atpg.backtracks after the restart:" >&2
    cat "$WORK/metrics.json" >&2
    exit 1
fi
echo "    $HITS store hits"

echo "==> ok"
