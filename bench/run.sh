#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (compiler cache included, so
# nothing is written outside the checkout) and runs it with the arguments
# given.  Outside a checkout of the repository the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's own files (env, telemetry counters)
# inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/noftl-bench" .)
exec "$build/noftl-bench" "$@"
