#!/usr/bin/env bash
# Builds the benchmark from the source tree around this directory and
# runs it. Every build and run artifact stays under .bench_build at the
# repository root, including the Go build cache.
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 15 --trace 0
#
# The last line of standard output is the JSON result; see README.md.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS="-mod=mod -buildvcs=false"
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2

rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
exec "$out/perfbench" --root "$root" --out "$out" --git-rev "$rev" "$@"
