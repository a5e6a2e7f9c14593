#!/bin/sh
# Crash-resume smoke: run a sharded sweep, SIGKILL one shard mid-flight,
# resume, and require the merged front to be byte-identical to the
# golden, a one-shard run of the same sweep. This drives the real
# binaries end to end — the process-level complement of internal/shard's
# in-process crash harness.
#
# The workload (seed 9, 12 cores, 300-point cap) is the same one the
# crash-harness tests use: big enough that a shard is reliably mid-flight
# when the kill lands, small enough to finish in seconds.
set -eu

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
BIN="$WORK/tradeoff"
CK="$WORK/sweep"
GEN="-gen -seed 9 -cores 12 -max-points 300"

go build -o "$BIN" ./cmd/tradeoff

echo "==> golden: unsharded sweep"
"$BIN" $GEN -shards 1 -shard-index 0 > "$WORK/golden.txt"

echo "==> shard 0/2: run to completion"
"$BIN" $GEN -shards 2 -shard-index 0 -checkpoint "$CK" -checkpoint-every 5ms > /dev/null

echo "==> shard 1/2: SIGKILL on first checkpoint"
"$BIN" $GEN -shards 2 -shard-index 1 -checkpoint "$CK" -checkpoint-every 1ms > /dev/null 2>&1 &
PID=$!
CKFILE="$CK.shard1-of-2.ck"
i=0
while [ ! -s "$CKFILE" ]; do
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "shard 1 finished before the kill; checkpoint must still exist" >&2
        [ -s "$CKFILE" ] || { echo "no checkpoint written" >&2; exit 1; }
        break
    fi
    i=$((i + 1))
    [ "$i" -gt 2000 ] && { echo "shard 1 never checkpointed" >&2; kill -9 "$PID"; exit 1; }
    sleep 0.01
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
echo "    killed shard 1 (checkpoint $(wc -c < "$CKFILE") bytes on disk)"

echo "==> resume + merge all shards"
"$BIN" $GEN -shards 2 -shard-index -1 -checkpoint "$CK" -resume > "$WORK/merged.txt"

echo "==> diff merged vs golden"
if ! diff -u "$WORK/golden.txt" "$WORK/merged.txt"; then
    echo "crash-resume merge is not byte-identical to the unsharded run" >&2
    exit 1
fi

echo "==> ok"
