#!/usr/bin/env bash
# Builds the benchmark (and the daemon packages it embeds) from source
# and runs one workload:
#
#   bash perfbench/run.sh --workload reads-mem --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact, Go cache and
# scratch file stays under the build directory (CARGO_TARGET_DIR when
# set, else .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
mkdir -p "$HOME"

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" ./cmd/perfbench)
exec "$build/perfbench-bin" --work "$build/perfbench" "$@"
