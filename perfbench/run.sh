#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments (see README.md), e.g.
#
#   bash perfbench/run.sh --workload browse_read --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run leave behind goes under .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
# The benchmark needs no module outside the checkout: build offline, with
# the installed toolchain, and keep every cache inside .bench_build. The
# checkout need not be a version-control work tree, so no VCS stamping.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
