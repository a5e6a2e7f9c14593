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

echo "==> go test -race (parallel enumeration)"
go test -race -run 'TestEnumerateParallel|TestEnumerateReturnsLowestFailingIndex' ./internal/explore/
go test -race ./internal/fanout/

echo "==> go test -race (delta-vs-full equivalence)"
go test -race -count=1 -run 'TestDelta|TestMultiMatchesSingle|TestMultiDuplicate|TestMultiUnreachable|TestFinderReuse|TestCloneWithVersion|TestHeapMatchesContainerHeap|TestDistancesMatchSearch|TestInterconnectMatchesPerNetSearch|TestEqualEvaluationsComparesUntestableNets|TestConeSearchMatchesUnrestricted|TestFinderSurvivesEpochWrap|TestPutFinderDropsGraph|TestPinListsAreSharedAndCapped|TestEarliestFreeIsFIFO|TestNearestPathTie|TestBoundsThrough' \
    ./internal/core/ ./internal/ccg/ ./internal/explore/ ./internal/sched/ ./internal/proptest/

echo "==> go test -race (delta-vs-full on 48-core SoCs: more flips than the 16-base registry holds)"
go test -race -count=1 -run TestGeneratedChips ./internal/proptest/ -proptest.n=4 -proptest.cores=48

echo "==> go test -race (wrapper corpus smoke: replay + tamper detection)"
go test -race -count=1 -run 'TestWrappedChips|TestWrapReplayDetectsLies' ./internal/proptest/ -proptest.n=12

echo "==> go test -race ./..."
go test -race ./...

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

echo "==> go test -fuzz=FuzzTestSetDecode (10s smoke)"
go test -fuzz=FuzzTestSetDecode -fuzztime=10s -run '^$' ./internal/atpg/

echo "==> crash-resume smoke (scripts/crashsmoke.sh)"
sh scripts/crashsmoke.sh

echo "==> daemon crash smoke (scripts/daemonsmoke.sh)"
sh scripts/daemonsmoke.sh

echo "==> bench trajectory smoke (scripts/bench.sh -smoke)"
sh scripts/bench.sh -smoke

echo "==> ok"
