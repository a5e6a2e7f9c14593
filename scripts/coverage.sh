#!/bin/sh
# Coverage gate: run the full test suite with coverage over internal/...
# and fail if the total drops below the recorded baseline. Raise the
# baseline when new tests push coverage up; never lower it to make a
# regression pass.
set -eu

cd "$(dirname "$0")/.."

BASELINE=90.1

profile=$(mktemp /tmp/cover.XXXXXX.out)
log=$(mktemp /tmp/cover.XXXXXX.log)
trap 'rm -f "$profile" "$log"' EXIT

# The suite's output goes to a file; on failure, name what failed.
if ! go test -count=1 -coverprofile="$profile" -coverpkg=./internal/... ./... > "$log" 2>&1; then
    echo "coverage: the test suite failed" >&2
    grep -E '^[[:space:]]*--- FAIL|^FAIL|^panic:' "$log" >&2 || true
    echo "--- last 40 lines of go test output ---" >&2
    tail -n 40 "$log" >&2
    exit 1
fi

total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')

echo "coverage: ${total}% (baseline ${BASELINE}%)"
awk -v t="$total" -v b="$BASELINE" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || {
    echo "coverage ${total}% fell below the ${BASELINE}% baseline" >&2
    exit 1
}
