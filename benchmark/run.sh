#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the toolchain writes (build cache, module cache, binary,
# trace files) lands under .bench_build/, so a run touches nothing
# outside the directory it was started in. The build fails, and so does
# this script, where the program's own packages are missing.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C benchmark -o "$out/oocp-benchmark" .
exec "$out/oocp-benchmark" "$@"
