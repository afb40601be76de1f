#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# from the root of the repository. Everything the build writes — the
# program, Go's build cache — goes under .bench_build/ in the checkout,
# and the program replaces this shell, so nothing is left running.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The module replaces "wsupgrade" with the repository around it, so this
# fails — and the script with it, printing no result — anywhere the
# repository's own sources are missing.
go build -C "$here" -o "$build/mediation-bench" . >&2

cd "$root"
exec "$build/mediation-bench" "$@"
