#!/usr/bin/env bash
# loc.sh — print the number of non-test Go lines outside bench/ (one number),
# the figure ROADMAP aim 2 wants to see trending down from PR to PR.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -print0 |
    xargs -0 cat | wc -l
