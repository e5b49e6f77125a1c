#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload plan-cold --seed 2003 --seconds 15 --trace 0
#
# Every build artefact (Go build cache, binary, trace files) stays under
# .bench_build/ in the current directory, and the Go toolchain is kept
# offline. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$out/ftbar-benchmark" .
exec "$out/ftbar-benchmark" "$@"
