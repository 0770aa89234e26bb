#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given flags (see bench/README.md). Run it from anywhere: it works from the
# checkout root. The build cache, the binary, temporary stores and result
# files all stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -C bench -o "$build/factcheck-bench" .
exec "$build/factcheck-bench" "$@"
