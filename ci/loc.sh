#!/usr/bin/env bash
# loc.sh — print the number of non-test Go lines outside bench/ (one number),
# the figure ROADMAP aim 2 wants to see trending down from PR to PR.
#
# With --check the count is a ratchet: the script fails when it exceeds the
# ceiling committed in ci/LOC_max.txt, so growth has to be an explicit,
# reviewed edit of that file.  Lower the ceiling whenever a PR shrinks the
# count.
#
# With --orphans it checks instead that every package under internal/ is in
# the import closure of the root package, a command, a CI tool or an example:
# a package only its own tests (or another orphan) import is a second
# implementation nothing runs, and the line count is where it hides.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "${1:-}" = "--orphans" ]; then
    orphans=$(comm -23 <(go list ./internal/... | sort) \
        <(go list -deps . ./cmd/... ./ci/... ./examples/... | sort -u))
    if [ -n "$orphans" ]; then
        echo "imported by none of ., ./cmd/..., ./ci/..., ./examples/...:" >&2
        echo "$orphans" >&2
        exit 1
    fi
    echo "every package under internal/ is reachable from ., cmd/, ci/ or examples/"
    exit 0
fi
n=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 |
    xargs -0 cat | wc -l)
if [ "${1:-}" != "--check" ]; then
    echo "$n"
    exit 0
fi
max=$(tr -d '[:space:]' < ci/LOC_max.txt)
echo "non-test lines of Go: $n (ceiling $max)"
if [ "$n" -gt "$max" ]; then
    echo "the count grew past ci/LOC_max.txt; shrink the change or raise the ceiling in a reviewed edit" >&2
    exit 1
fi
