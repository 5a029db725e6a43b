#!/usr/bin/env bash
# reach.sh — print the non-test functions of the module that no entry point
# enters, one per line (file:line: function), then their number.
#
# It builds every entry point with coverage of the whole module
# (go build -cover -coverpkg=noftl/...) into a temporary directory and runs
# each as CI does:
#
#   noftl-bench -experiment all -scale small -seeds 16 -baseline ci/BENCH_baseline.json
#   bench/ (every workload, untraced then traced)
#   examples/quickstart and examples/concurrent
#   ci/promlint, and noftl-trace print|filter|summarize on its trace
#   noftl-ddl on one statement of each kind
#
# A function listed is code only tests reach, or none: test it from an entry
# point's behaviour or delete it.  Functions are named by file, not line, so
# the list survives edits elsewhere in a file.
#
# With --check the list is a ratchet: the script fails when a function is
# unreached that ci/reach.txt does not list.  A change that tests or deletes
# a listed function removes its line; regenerate the file with
#
#   bash ci/reach.sh | sed '$d' > ci/reach.txt
#
# Everything is written to the temporary directory, which is removed on
# exit; nothing lands under bench/ or anywhere else in the checkout.  It
# takes a few minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
export GOCOVERDIR=$tmp/cov
mkdir -p "$bin" "$GOCOVERDIR" "$tmp/bench"

for pkg in cmd/noftl-bench cmd/noftl-trace cmd/noftl-ddl ci/promlint \
    examples/quickstart examples/concurrent bench; do
    (cd "$pkg" && go build -cover -coverpkg=noftl/... -o "$bin/$(basename "$pkg")" .)
done

"$bin/noftl-bench" -experiment all -scale small -seeds 16 -baseline ci/BENCH_baseline.json >/dev/null
"$bin/bench" --out "$tmp/bench" >/dev/null 2>&1
"$bin/quickstart" >/dev/null
"$bin/concurrent" >/dev/null
"$bin/promlint" -trace-out "$tmp/trace.jsonl" >/dev/null
"$bin/noftl-trace" print -n 20 "$tmp/trace.jsonl" >/dev/null
"$bin/noftl-trace" filter -class host_write,gc_step "$tmp/trace.jsonl" >"$tmp/subset.jsonl"
"$bin/noftl-trace" summarize "$tmp/subset.jsonl" >/dev/null
"$bin/noftl-trace" summarize "$tmp/trace.jsonl" >/dev/null
"$bin/noftl-ddl" -e 'CREATE REGION rgHot (MAX_CHIPS=4, MAX_CHANNELS=4, MAX_SIZE=64M, GC_POLICY=COST_BENEFIT);
    CREATE TABLESPACE tsHot (REGION=rgHot, EXTENT SIZE 128K);
    CREATE TABLE T (t_id NUMBER(3), t_name VARCHAR(20)) TABLESPACE tsHot;
    CREATE UNIQUE INDEX T_IDX ON T (t_id) TABLESPACE tsHot;
    DROP INDEX T_IDX; DROP TABLE T; DROP TABLESPACE tsHot; DROP REGION rgHot;' >/dev/null

go tool covdata func -i="$GOCOVERDIR" |
    awk '$NF == "0.0%" && $1 !~ /^noftl\/bench\// { sub(/[0-9]+:$/, "", $1); print $1, $2 }' |
    sort -u >"$tmp/unreached"
if [ "${1:-}" = "--check" ]; then
    new=$(comm -23 "$tmp/unreached" <(sort -u ci/reach.txt))
    if [ -n "$new" ]; then
        echo "functions no entry point enters that ci/reach.txt does not list:" >&2
        echo "$new" >&2
        exit 1
    fi
    echo "every unreached function is on ci/reach.txt ($(wc -l <"$tmp/unreached") unreached)"
    exit 0
fi
cat "$tmp/unreached"
echo "$(wc -l <"$tmp/unreached") functions no entry point enters"
