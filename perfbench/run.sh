#!/usr/bin/env bash
# run.sh — build the layered benchmark from source and run it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-hybrid --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that imports the
# simulator through a replace directive pointing at the repository root, so
# `go test ./...` at the root never builds it. Every build artifact — the
# binary, the Go build cache and the toolchain's config files — stays under
# .bench_build/ in the current directory. Outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
