#!/usr/bin/env bash
# Builds cmd/xpathserve and the benchmark program from the checkout it is
# run in, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload point-small --seed 1 --seconds 20 --trace 0
#
# Build caches, binaries, generated corpora, span files and result files all
# live under .bench_build/ in the checkout; nothing is read or written
# outside it. Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

go build -o "$out/bin/xpathserve" ./cmd/xpathserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/xpathserve" -out "$out/perfbench" "$@"
