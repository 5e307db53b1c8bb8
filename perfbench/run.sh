#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the checkout. Every file the build and the run
# write (Go build cache, binary, daemon stores, run reports, span dumps)
# stays under .bench_build/ in the checkout.
set -euo pipefail

command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --work "$build" "$@"
