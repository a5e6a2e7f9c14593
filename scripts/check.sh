#!/bin/sh
# Repository health check: formatting, vet, and the full test suite under
# the race detector. Run from the repo root (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> perfbench module: go vet + go test (its own go.mod; the root ./... skips it)"
(cd perfbench && go vet ./... && go test ./...)

echo "==> go test -race (delta-vs-full on 48-core SoCs: more flips than the 16-base registry holds)"
go test -race -count=1 -run TestGeneratedChips ./internal/proptest/ -proptest.n=4 -proptest.cores=48

echo "==> go test -race (wrapper corpus smoke: replay + tamper detection)"
go test -race -count=1 -run 'TestWrappedChips|TestWrapReplayDetectsLies' ./internal/proptest/ -proptest.n=12

echo "==> compare -study (all 16 chips) byte-identical to perfbench's reference rows"
go run ./cmd/compare -study | cmp - perfbench/testdata/study-seed1.txt

echo "==> go test -race ./..."
go test -race ./...

echo "==> ATPG worker-count smoke (socet -system 1 at GOMAXPROCS=1 and 4)"
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/socet" ./cmd/socet
for procs in 1 4; do
    GOMAXPROCS=$procs "$smoke/socet" -system 1 -metrics "$smoke/metrics$procs.json" > "$smoke/out$procs.txt"
    grep '"atpg\.' "$smoke/metrics$procs.json" > "$smoke/atpg$procs.txt"
done
cmp "$smoke/out1.txt" "$smoke/out4.txt"
cmp "$smoke/atpg1.txt" "$smoke/atpg4.txt"

echo "==> go test -fuzz=FuzzValidate (10s smoke)"
go test -fuzz=FuzzValidate -fuzztime=10s -run '^$' ./internal/rtl/

echo "==> go test -fuzz=FuzzParseFaults (10s smoke)"
go test -fuzz=FuzzParseFaults -fuzztime=10s -run '^$' ./internal/resil/

echo "==> go test -fuzz=FuzzCheckpointDecode (10s smoke)"
go test -fuzz=FuzzCheckpointDecode -fuzztime=10s -run '^$' ./internal/shard/

echo "==> go test -fuzz=FuzzJobSpec (10s smoke)"
go test -fuzz=FuzzJobSpec -fuzztime=10s -run '^$' ./internal/serve/job/

echo "==> go test -fuzz=FuzzTAMAssign (10s smoke)"
go test -fuzz=FuzzTAMAssign -fuzztime=10s -run '^$' ./internal/wrap/

echo "==> go test -fuzz=FuzzImply (10s smoke)"
go test -fuzz=FuzzImply -fuzztime=10s -run '^$' ./internal/atpg/

echo "==> go test -fuzz=FuzzRedundant (10s smoke)"
go test -fuzz=FuzzRedundant -fuzztime=10s -run '^$' ./internal/atpg/

echo "==> go test -fuzz=FuzzTestSetDecode (10s smoke)"
go test -fuzz=FuzzTestSetDecode -fuzztime=10s -run '^$' ./internal/atpg/

echo "==> crash-resume smoke (scripts/crashsmoke.sh)"
sh scripts/crashsmoke.sh

echo "==> daemon crash smoke (scripts/daemonsmoke.sh)"
sh scripts/daemonsmoke.sh

echo "==> bench trajectory smoke (scripts/bench.sh -smoke)"
sh scripts/bench.sh -smoke

echo "==> ok"
