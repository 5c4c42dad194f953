#!/usr/bin/env bash
# Builds the SwitchV end-to-end benchmark from the source tree it is run
# in, then runs one workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload dp-middleblock-798 --seed 42 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, result files and traces all stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/e2ebench" --out "$build/e2ebench-out" --commit "$commit" "$@"
