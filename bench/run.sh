#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it with the
# given arguments (see README.md). Every file the Go toolchain and the
# harness write lands under bench/out/.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp"
export GOPATH="$PWD/out/gopath" GOMODCACHE="$PWD/out/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -o out/bwbench .
exec out/bwbench "$@"
