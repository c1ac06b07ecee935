#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the Go toolchain writes lands under .bench_build/, so a run reads
# and writes nothing outside its checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
